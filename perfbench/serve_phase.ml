(* Serve phase: [era_serve] embedded in this process, driven in a closed
   loop. Each of [clients] connections submits a job, follows it to its
   terminal summary and submits the next, so the daemon sees at most
   [clients] jobs at once and a slower daemon receives less load. The
   load comes in slices between the other phases' turns, each slice on
   a freshly booted daemon.

   The mix holds only small jobs (explore finds, Figure 1/2 runs): a
   single long job kind would own the tail, and p95 would measure that
   one kind. *)

module J = Era_metrics.Json
module Serve = Era_serve

let clients = 2

let mix =
  Serve.Job.
    [|
      default_explore ~scheme:"hp" ~structure:"harris-list" ();
      default_explore ~scheme:"ibr" ~structure:"harris-list" ();
      default_explore ~scheme:"he" ~structure:"harris-list" ();
      Figure1 { scheme = "ebr"; rounds = 128 };
      Figure2 { scheme = "hp" };
    |]

(* Blocks of one job of each kind, each block shuffled from the seed:
   every run carries the same proportions in a seed-dependent order. *)
let job_order ~seed n =
  let rng = Era_sim.Rng.create seed in
  let k = Array.length mix in
  let order = Array.make (((n / k) + 1) * k) 0 in
  for b = 0 to n / k do
    let block = Array.init k Fun.id in
    Era_sim.Rng.shuffle rng block;
    Array.blit block 0 order (b * k) k
  done;
  Array.sub order 0 n

type job = {
  kind : int;  (** index into [mix] *)
  t_send : float;  (** client clock, before the submit request *)
  t_admit : float;  (** submit reply received *)
  t_term : float;  (** terminal summary received *)
  submitted_s : float;  (** daemon clock, from the summary *)
  started_s : float;
  finished_s : float;
  heartbeats : int;
}

let turnaround_ms j = 1000. *. (j.t_term -. j.t_send)

(* The daemon answers a follow by checking the job at once and then
   every 50 ms from the follow request on. Following right after the
   submit would make every turnaround a whole number of polls, and a
   percentile would jump by 50 ms whenever a few jobs cross a poll
   boundary. The follow is therefore sent after a seeded delay in
   [0, poll), which spreads the poll phase evenly over the job; the wait
   for the terminal line still averages about half a poll. *)
let follow_poll_s = 0.05

(* One job through one connection; [Error] for a shed, a lost
   connection, or any terminal status but [done]. *)
let one ?(follow_delay_s = 0.) conn kind =
  let t_send = Unix.gettimeofday () in
  match Serve.Client.submit conn ~tenant:"bench" mix.(kind) with
  | Error e -> Error ("submit: " ^ e)
  | Ok (Serve.Client.Shed reason) -> Error ("shed: " ^ reason)
  | Ok (Serve.Client.Admitted id) -> (
    let t_admit = Unix.gettimeofday () in
    Thread.delay follow_delay_s;
    let heartbeats = ref 0 in
    match Serve.Client.follow conn ~on_heartbeat:(fun _ -> incr heartbeats) id with
    | Error e -> Error ("follow: " ^ e)
    | Ok summary -> (
      let t_term = Unix.gettimeofday () in
      let str k = Option.bind (J.member k summary) J.to_str in
      let num k = Option.value (Option.bind (J.member k summary) J.to_float) ~default:0. in
      match str "status" with
      | Some "done" when J.member "interrupted" summary = None ->
        Ok
          {
            kind;
            t_send;
            t_admit;
            t_term;
            submitted_s = num "submitted_s";
            started_s = num "started_s";
            finished_s = num "finished_s";
            heartbeats = !heartbeats;
          }
      | s -> Error (Printf.sprintf "job %d ended %s" id (Option.value s ~default:"?"))))

let connect socket =
  match Serve.Client.connect ~retries:20 ~retry_delay_s:0.05 ~socket () with
  | Ok c -> c
  | Error e -> failwith ("perfbench: cannot connect to the daemon: " ^ e)

let rec remove_tree path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun e -> remove_tree (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* Run [f] inside a fresh scratch directory under the current one: the
   daemon's socket, store and shutdown dump (which [Daemon.stop] writes
   to the working directory) all land there, and it is removed after
   [f], on every path out. *)
let in_scratch_dir f =
  let cwd = Sys.getcwd () in
  let dir = Filename.concat cwd (Printf.sprintf ".perfbench-%d" (Unix.getpid ())) in
  remove_tree dir;
  Unix.mkdir dir 0o700;
  Sys.chdir dir;
  Fun.protect
    ~finally:(fun () ->
      Sys.chdir cwd;
      remove_tree dir)
    f

(* The serve load of a whole run, taken in slices. Each slice boots a
   daemon, runs its jobs and stops the daemon again: an idle daemon's
   executor domains and handler threads slow the native and explorer
   phases that run between slices. *)
type t = {
  checks : Perfbench.checks;
  delays : Era_sim.Rng.t array;  (** each client's follow-delay stream *)
  order : int array;
  mutable next : int;
  mutable slices : int;
  mutable jobs : job list;
  mutable busy_s : float;  (** wall time of the closed loops *)
}

let create ~seed ~checks =
  {
    checks;
    delays = Array.init clients (fun c -> Era_sim.Rng.create ((seed * 31) + c));
    order = job_order ~seed 10_000;
    next = 0;
    slices = 0;
    jobs = [];
    busy_s = 0.;
  }

let check_one t r ~what =
  (match r with Ok j -> t.jobs <- j :: t.jobs | Error _ -> ());
  Perfbench.check t.checks (Result.is_ok r)
    ~what:(match r with Ok _ -> "" | Error e -> what ^ e)

(* The closed loop: the clients take the next [n] jobs of the
   sequence. *)
let closed_loop t conns ~n =
  let m = Mutex.create () in
  let stop_at = min (Array.length t.order) (t.next + n) in
  let t0 = Unix.gettimeofday () in
  let take () =
    Mutex.protect m (fun () ->
        if t.next >= stop_at then None
        else begin
          t.next <- t.next + 1;
          Some t.order.(t.next - 1)
        end)
  in
  let client (conn, rng) =
    let rec go () =
      match take () with
      | None -> ()
      | Some kind ->
        let r = one ~follow_delay_s:(follow_poll_s *. Era_sim.Rng.float rng) conn kind in
        Mutex.protect m (fun () -> check_one t r ~what:"serve: ");
        go ()
    in
    go ()
  in
  let threads = Array.map (Thread.create client) (Array.combine conns t.delays) in
  Array.iter Thread.join threads;
  t.busy_s <- t.busy_s +. (Unix.gettimeofday () -. t0)

(* The daemon's own accounting of a slice that sent [sent] jobs:
   nothing may be shed, failed or left unserved. *)
let check_stats t conn ~sent =
  match Serve.Client.stats conn with
  | Error e -> Perfbench.check t.checks false ~what:("serve stats: " ^ e)
  | Ok st ->
    let get k = Option.value (Option.bind (J.member k st) J.to_int) ~default:(-1) in
    Perfbench.check t.checks
      (get "shed" = 0 && get "failed" = 0 && get "aborted" = 0
      && get "served" = get "admitted"
      && get "admitted" = sent)
      ~what:
        (Printf.sprintf "serve: sent %d, admitted %d served %d shed %d failed %d aborted %d" sent
           (get "admitted") (get "served") (get "shed") (get "failed") (get "aborted"))

(* One slice, run in the scratch directory: boot a daemon with a fresh
   store, run [n] jobs of the sequence in the closed loop (or, for
   [`Warm_up], one discarded job of each kind, one at a time), check the
   daemon's counters and stop it. Returns the boot time: daemon start
   until every client is connected and the first ping answers. *)
let slice t what =
  let store_dir = Printf.sprintf "store-%d" t.slices in
  t.slices <- t.slices + 1;
  let socket = "serve.sock" in
  let t_boot = Unix.gettimeofday () in
  let daemon =
    Serve.Daemon.start { Serve.Daemon.default_config with socket_path = socket; store_dir }
  in
  let conns = ref [] in
  Fun.protect
    ~finally:(fun () ->
      List.iter Serve.Client.close !conns;
      Serve.Daemon.stop daemon;
      remove_tree store_dir)
    (fun () ->
      for _ = 1 to clients do
        conns := connect socket :: !conns
      done;
      let conns = Array.of_list !conns in
      (match Serve.Client.ping conns.(0) with
      | Ok () -> ()
      | Error e -> failwith ("perfbench: daemon does not answer: " ^ e));
      let boot_s = Unix.gettimeofday () -. t_boot in
      let sent =
        match what with
        | `Warm_up ->
          Array.iteri
            (fun kind _ ->
              Perfbench.check t.checks (Result.is_ok (one conns.(0) kind))
                ~what:"serve warm-up job failed")
            mix;
          Array.length mix
        | `Jobs n ->
          let first = t.next in
          closed_loop t conns ~n;
          t.next - first
      in
      check_stats t conns.(0) ~sent;
      boot_s)

type result = {
  jobs : job list;
  elapsed_s : float;  (** wall time of the closed loops *)
}

let result (t : t) = { jobs = List.rev t.jobs; elapsed_s = t.busy_s }

let end_to_end r =
  let ta = List.map turnaround_ms r.jobs in
  [
    Perfbench.metric ~samples:ta "serve.turnaround_p50_ms" "ms" (Perfbench.percentile ta 50.);
    Perfbench.metric ~samples:ta "serve.turnaround_p95_ms" "ms" (Perfbench.percentile ta 95.);
    Perfbench.metric "serve.jobs_per_s" "1/s"
      (float_of_int (List.length r.jobs) /. r.elapsed_s);
  ]

(* Each kind run standalone in this process, with no daemon and no
   co-running job: the denominator of [serve.run_inflation]. Run in the
   scratch directory, like [slice]. *)
let standalone_ms () =
  let dir = "store-standalone" in
  Fun.protect
    ~finally:(fun () -> remove_tree dir)
    (fun () ->
      let store = Serve.Store.open_ ~dir in
      Array.mapi
        (fun i kind ->
          Perfbench.median
            (List.init 3 (fun rep ->
                 let job = Serve.Job.make ~id:((i * 10) + rep + 1) ~tenant:"bench" kind in
                 Serve.Executor.run_job ~store job;
                 1000. *. (job.Serve.Job.finished_s -. job.Serve.Job.started_s))))
        mix)

let per_layer r =
  let ms f = List.map (fun j -> 1000. *. f j) r.jobs in
  let base = standalone_ms () in
  let run_ms = ms (fun j -> j.finished_s -. j.started_s) in
  let base_ms = List.map (fun j -> base.(j.kind)) r.jobs in
  let sum = List.fold_left ( +. ) 0. in
  [
    Perfbench.median_metric "serve.submit_rtt_ms" "ms" (ms (fun j -> j.t_admit -. j.t_send));
    Perfbench.median_metric "serve.queue_wait_ms" "ms" (ms (fun j -> j.started_s -. j.submitted_s));
    Perfbench.median_metric "serve.run_ms" "ms" run_ms;
    Perfbench.median_metric "serve.notify_ms" "ms" (ms (fun j -> j.t_term -. j.finished_s));
    Perfbench.metric "serve.run_inflation" "ratio" (Perfbench.ratio (sum run_ms) (sum base_ms));
    Perfbench.median_metric "serve.heartbeats_per_job" "count"
      (List.map (fun j -> float_of_int j.heartbeats) r.jobs);
  ]
