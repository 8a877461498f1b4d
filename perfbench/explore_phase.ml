(* Explorer phase: time to a verdict on fixed targets.

   - verify: DPOR exhausts preemption bound 2 on ebr/harris-list with 5
     ops per thread, once sequentially and once on the 2-domain engine
     [era_cli explore --domains 2] uses (level-synchronous queue);
   - find: the hp/harris-list Figure-2 violation, found and shrunk.

   The targets use the explorer's fixed seed, not the workload seed: a
   different target is a different search space, and its verdict time
   is not comparable across runs. *)

module Ex = Era_explore.Explore
module A = Era.Applicability

let verify_target () =
  A.explore_target ~seed:2 ~ops_per_thread:5 (Era_smr.Registry.find_exn "ebr") A.Harris

let find_target () = A.explore_target ~seed:2 (Era_smr.Registry.find_exn "hp") A.Harris

let verify_config domains =
  { Ex.default_config with Ex.max_preemptions = 2; max_runs = 100_000; shrink = false; dpor = true; domains }

(* A find with shrinking takes ~70 ms on a 2-core x86 VM: time
   [find_batch] of them back to back per sample, so one sample is not
   one scheduler hiccup. *)
let find_batch = 4

type rep = {
  verify_s : float;
  verify_s_d2 : float;
  find_s : float;  (** per find, shrinking on *)
  d1 : Ex.stats;
  d2 : Ex.stats;
}

let check_verify checks ~what (r : Ex.search_result) =
  let s = r.Ex.res_stats in
  Perfbench.check checks
    (r.Ex.res_cex = None && s.Ex.levels_completed >= 3 && s.Ex.failed_runs = 0)
    ~what:
      (Printf.sprintf "explore %s: not exhausted or violated (levels %d, failed %d, cex %b)" what
         s.Ex.levels_completed s.Ex.failed_runs (r.Ex.res_cex <> None))

let check_find checks (r : Ex.search_result) =
  let ok =
    match r.Ex.res_cex with
    | None -> false
    | Some cex -> (
      match (Ex.replay (find_target ()) cex).Ex.rp_violation with
      | Some v -> v.Ex.v_kind = cex.Ex.c_violation.Ex.v_kind
      | None -> false)
  in
  Perfbench.check checks ok ~what:"explore find: no counterexample, or it does not replay"

let find ~shrink =
  Ex.explore ~config:{ Ex.default_config with Ex.shrink } (find_target ())

let rep checks =
  let verify_s, v1 = Perfbench.timed (fun () -> Ex.explore ~config:(verify_config 1) (verify_target ())) in
  check_verify checks ~what:"verify d1" v1;
  let verify_s_d2, v2 = Perfbench.timed (fun () -> Ex.explore ~config:(verify_config 2) (verify_target ())) in
  check_verify checks ~what:"verify d2" v2;
  let batch_s, finds = Perfbench.timed (fun () -> List.init find_batch (fun _ -> find ~shrink:true)) in
  List.iter (check_find checks) finds;
  {
    verify_s;
    verify_s_d2;
    find_s = batch_s /. float_of_int find_batch;
    d1 = v1.Ex.res_stats;
    d2 = v2.Ex.res_stats;
  }

(* The sequential DPOR search is deterministic: every repetition must
   report the same exact run count. *)
let check_runs ~checks reps =
  let runs = List.sort_uniq compare (List.map (fun r -> r.d1.Ex.runs) reps) in
  Perfbench.check checks (List.length runs = 1)
    ~what:"explore verify d1: run count differs between repetitions"

(* Mean time per verdict over the repetitions (total time over count):
   repetition times in one run fall into two clusters some ~25% apart,
   and a median of such a sample jumps between them from run to run. *)
let mean_s reps f = List.fold_left (fun a r -> a +. f r) 0. reps /. float_of_int (List.length reps)

let end_to_end reps =
  let m name f = Perfbench.metric ~samples:(List.map f reps) name "s" (mean_s reps f) in
  [
    m "explore.verify_s" (fun r -> r.verify_s);
    m "explore.verify_s_d2" (fun r -> r.verify_s_d2);
    m "explore.find_s" (fun r -> r.find_s);
  ]

(* Re-execution cost alone: [Explore.run_steps] on random schedules of
   the verify target, i.e. the scheduler and monitor without the
   search's fingerprinting, sleep sets and prefix bookkeeping. *)
let reexec ~seed =
  let rng = Era_sim.Rng.create seed in
  let target = verify_target () in
  let schedules =
    List.init 400 (fun _ -> List.init 300 (fun _ -> Era_sim.Rng.int rng target.Ex.nthreads))
  in
  let states = ref 0 in
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun steps ->
      let sched = ref None in
      ignore (Ex.run_steps ~on_sched:(fun sc -> sched := Some sc) target steps);
      Option.iter (fun sc -> states := !states + Era_sched.Sched.total_steps sc) !sched)
    schedules;
  (Unix.gettimeofday () -. t0, !states)

let per_layer ~seed reps =
  let d1 = (List.hd reps).d1 in
  let verify_s = mean_s reps (fun r -> r.verify_s) in
  let states = float_of_int d1.Ex.states in
  let reexec_s, reexec_states = reexec ~seed in
  let ns_per_state = reexec_s *. 1e9 /. float_of_int (max 1 reexec_states) in
  let noshrink =
    List.init 3 (fun _ -> fst (Perfbench.timed (fun () -> List.init find_batch (fun _ -> find ~shrink:false))))
  in
  let find_s = mean_s reps (fun r -> r.find_s) in
  let noshrink_s = Perfbench.median noshrink /. float_of_int find_batch in
  let balance r =
    match r.d2.Ex.per_domain_runs with
    | [] -> 0.
    | l ->
      let lo = List.fold_left min max_int l and hi = List.fold_left max 0 l in
      Perfbench.ratio (float_of_int lo) (float_of_int hi)
  in
  let count name n = Perfbench.metric name "count" (float_of_int n) in
  [
    count "explore.runs" d1.Ex.runs;
    count "explore.states" d1.Ex.states;
    count "explore.sleep_cuts" d1.Ex.sleep_cuts;
    count "explore.pruned" d1.Ex.pruned;
    Perfbench.metric "explore.states_per_s" "1/s" (states /. verify_s);
    Perfbench.metric "explore.reexec_ns_per_state" "ns" ns_per_state;
    Perfbench.metric "explore.search_overhead_share" "ratio"
      (1. -. (ns_per_state *. states /. (verify_s *. 1e9)));
    Perfbench.metric "explore.find.shrink_share" "ratio" (1. -. (noshrink_s /. find_s));
    Perfbench.metric "explore.d2.speedup" "ratio" (verify_s /. mean_s reps (fun r -> r.verify_s_d2));
    Perfbench.median_metric "explore.d2.balance" "ratio" (List.map balance reps);
  ]
