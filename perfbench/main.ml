(* The repository benchmark: one process runs a workload's native,
   explorer and serve phases and prints every metric, then one JSON
   result line.

     perfbench/run.py --workload read-hot --seed 1 --seconds 50 --trace 0

   [--trace 0] prints the end-to-end metrics, from untraced runs only.
   [--trace 1] prints the per-layer metrics: the native rounds also hold
   a [Timed]-wrapped copy of every cell and the [none] baseline, and the
   explorer and serve phases add their breakdowns. See GLOSSARY.md. *)

external maxrss_kib : unit -> int = "perfbench_maxrss_kib"

(* The workloads differ in the native mix; the explorer and serve
   phases run on fixed targets and a fixed job mix in both. *)
let native_mix = function
  | "read-hot" ->
    Some
      {
        Native_phase.keys = Era_workload.Workload.Zipf (1_000_000, 1.5);
        contains_pct = 90;
        prefill = 1024;
      }
  | "churn" ->
    Some { Native_phase.keys = Era_workload.Workload.Uniform 64; contains_pct = 0; prefill = 32 }
  | _ -> None

(* One cycle of the run: a native turn, an explorer repetition, a
   native turn and a serve slice. Every phase thus takes turns over the
   whole run, and a slow stretch of the host lands on all of them
   instead of on one phase's block. *)
let rounds_per_turn = 3
let jobs_per_slice = 12

(* An untraced run carries at least this many serve jobs, so that 10
   lie beyond the p95, and every run this many explorer repetitions. A
   traced run reports medians of the serve layers and no p95, and stops
   on time. *)
let min_jobs ~traced = if traced then 0 else 200
let min_reps = 5

let usage () =
  prerr_endline
    "usage: main.exe --workload read-hot|churn --seed N --seconds S --trace 0|1";
  exit 2

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0 and trace = ref (-1) in
  let rec parse = function
    | "--workload" :: w :: tl -> workload := w; parse tl
    | "--seed" :: n :: tl -> seed := int_of_string n; parse tl
    | "--seconds" :: n :: tl -> seconds := int_of_string n; parse tl
    | "--trace" :: n :: tl -> trace := int_of_string n; parse tl
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  let mix = match native_mix !workload with Some m -> m | None -> usage () in
  if !seed < 0 || !seconds < 1 || (!trace <> 0 && !trace <> 1) then usage ();
  let traced = !trace = 1 and seed = !seed in
  let seconds = float_of_int !seconds in
  let checks = Perfbench.checks () in
  Printf.printf "perfbench %s seed %d, %.0f s, trace %b\n%!" !workload seed seconds traced;
  let slots =
    Array.of_list
      (List.map (fun c -> (c, false)) Native_phase.scheme_cells
      @
      if traced then
        (Native_phase.none_cell, false) :: List.map (fun c -> (c, true)) Native_phase.scheme_cells
      else [])
  in
  if traced then Timed.calibrate ();
  Serve_phase.in_scratch_dir @@ fun () ->
  let serve = Serve_phase.create ~seed ~checks in
  (* Cycle [c]: its set-up is drawing its key and op-kind arrays,
     building and prefilling the cells of its native rounds, and booting
     its daemon. Cycle 0 is the discarded warm-up: it also builds the
     Zipf table, once per process, and its serve slice runs one job of
     each kind. *)
  let cycle c =
    let draw_s, ops = Perfbench.timed (fun () -> Native_phase.draw_ops mix ~seed ~cycle:c) in
    let round = Native_phase.round ~mix ~ops ~checks slots in
    let turn r =
      List.init rounds_per_turn (fun i -> round (r + i))
      |> List.fold_left (fun (ws, s) (w, s') -> (List.rev_append w ws, s +. s')) ([], 0.)
    in
    let w1, s1 = turn (2 * rounds_per_turn * c) in
    let rep = Explore_phase.rep checks in
    let w2, s2 = turn ((2 * rounds_per_turn * c) + rounds_per_turn) in
    let boot_s = Serve_phase.slice serve (if c = 0 then `Warm_up else `Jobs jobs_per_slice) in
    (List.rev_append w2 w1, draw_s +. s1 +. s2 +. boot_s, rep)
  in
  ignore (cycle 0);
  let t_end = Unix.gettimeofday () +. seconds in
  let rec go c windows setups reps =
    if
      Unix.gettimeofday () >= t_end
      && List.length reps >= min_reps
      && serve.Serve_phase.next >= min_jobs ~traced
    then ({ Native_phase.windows }, setups, reps)
    else begin
      let w, setup_s, rep = cycle c in
      go (c + 1) (List.rev_append w windows) (setup_s :: setups) (rep :: reps)
    end
  in
  let native, setups, explore = go 1 [] [] [] in
  Explore_phase.check_runs ~checks explore;
  let serve = Serve_phase.result serve in
  let setup = Perfbench.median_metric "setup_s" "s" setups in
  let metrics =
    if traced then
      Native_phase.per_layer native
      @ Explore_phase.per_layer ~seed explore
      @ Serve_phase.per_layer serve
    else
      [ setup; Perfbench.metric "peak_rss_mb" "MB" (float_of_int (maxrss_kib ()) /. 1024.) ]
      @ Native_phase.end_to_end native
      @ Explore_phase.end_to_end explore
      @ Serve_phase.end_to_end serve
  in
  Printf.printf "%d native windows, %d explorer repetitions, %d serve jobs (p%g has >= 10 beyond it)\n"
    (List.length native.Native_phase.windows)
    (List.length explore)
    (List.length serve.Serve_phase.jobs)
    (Option.value ~default:0. (Perfbench.tail_percentile (List.length serve.Serve_phase.jobs)));
  List.iter (fun m -> Format.printf "%a@." Perfbench.pp_metric m) metrics;
  Printf.printf "checks: %d failed of %d attempted\n" checks.Perfbench.failed
    checks.Perfbench.attempted;
  print_endline
    (Perfbench.result_line ~attempted:checks.Perfbench.attempted
       ~failed:checks.Perfbench.failed metrics)
