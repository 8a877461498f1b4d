(* Native phase: the lock-free lists over the native SMR schemes, driven
   through [Throughput.run_workers].

   The key and op-kind arrays are drawn afresh for every cycle of the
   run (see main.ml). Every round builds each cell afresh (scheme, list, prefill), then times one short window
   per cell. Cells run round-robin, and the round's starting cell
   rotates, so slow drift of the host lands on every cell alike. Some
   cells run at one of two speeds depending on the build (ibr on
   read-hot: about 0.9 or 1.9 Mops), so a run holds many short rounds
   rather than a few long ones: the share of slow builds then varies
   little from run to run. *)

module Nsmr = Era_native.Nsmr
module Throughput = Era_native.Throughput
module Workload = Era_workload.Workload
module Rng = Era_sim.Rng

type mix = {
  keys : Workload.key_dist;
  contains_pct : int;
  prefill : int;  (** odd keys 1, 3, … inserted before the window *)
}

(* One window's operations on each domain. *)
let ops_per_domain = 20_000

let domains = 2

(* Per-domain key/op arrays: long enough that the cyclic reuse is
   invisible in a window, a power of two so the wrap is a mask. *)
let sample_len = 1 lsl 16

(* One array per domain of [key lsl 2 lor op], op 0 = contains, 1 =
   insert, 2 = delete: the timed loop reads one int per operation. *)
let draw_ops mix ~seed ~cycle =
  Array.init domains (fun d ->
      let rng = Rng.create ((seed * 1_000_003) + (cycle * 1009) + d) in
      let keys = Workload.sample_keys rng mix.keys ~n:sample_len in
      Array.map
        (fun k ->
          let roll = Rng.int rng 100 in
          let op = if roll < mix.contains_pct then 0 else (roll land 1) + 1 in
          (k lsl 2) lor op)
        keys)

let max_key = function Workload.Uniform n | Workload.Zipf (n, _) -> n

module type LIST = sig
  type t
  type tctx

  val create : unit -> t
  val insert : t -> tctx -> int -> bool
  val delete : t -> tctx -> int -> bool
  val contains : t -> tctx -> int -> bool
  val to_list : t -> tctx -> int list
end

type instance = {
  make_worker : int -> unit -> unit;
  stats : unit -> Nsmr.stats;
  contents : unit -> int list;  (** at a quiescent point *)
}

let instance (type s c) (module S : Nsmr.S with type t = s and type tctx = c)
    (module L : LIST with type tctx = c) (g : s) ~ops ~offset ~prefill =
  let l = L.create () in
  let s0 = S.thread g 0 in
  for i = 0 to prefill - 1 do
    ignore (L.insert l s0 ((2 * i) + 1))
  done;
  let make_worker d =
    let s = S.thread g d in
    let tagged = ops.(d) in
    let mask = Array.length tagged - 1 in
    let idx = ref offset in
    fun () ->
      let v = Array.unsafe_get tagged (!idx land mask) in
      incr idx;
      let k = v lsr 2 in
      match v land 3 with
      | 0 -> ignore (L.contains l s k)
      | 1 -> ignore (L.insert l s k)
      | _ -> ignore (L.delete l s k)
  in
  { make_worker; stats = (fun () -> S.stats g); contents = (fun () -> L.to_list l s0) }

(* Per-layer counters of one traced window. *)
type layers = {
  read_link : Timed.layer;
  begin_op : Timed.layer;
  retire : Timed.layer;
  alloc : Timed.layer;
  neutralized : int;
}

type kind = Michael | Harris

(* A cell: a scheme over a list, built untraced or wrapped in
   [Timed.Make]. *)
type cell = {
  cname : string;
  build :
    traced:bool -> ops:int array array -> offset:int -> prefill:int -> instance * (unit -> layers option);
}

let cell cname kind (module S : Nsmr.S) =
  let plain ~ops ~offset ~prefill =
    let g = S.create ~ndomains:domains in
    let inst =
      match kind with
      | Michael -> instance (module S) (module struct type tctx = S.tctx include Era_native.N_michael.Make (S) end) g ~ops ~offset ~prefill
      | Harris -> instance (module S) (module struct type tctx = S.tctx include Era_native.N_harris.Make (S) end) g ~ops ~offset ~prefill
    in
    (inst, fun () -> None)
  in
  let traced ~ops ~offset ~prefill =
    let module T = Timed.Make (S) in
    let g = T.create ~ndomains:domains in
    let inst =
      match kind with
      | Michael -> instance (module T) (module struct type tctx = T.tctx include Era_native.N_michael.Make (T) end) g ~ops ~offset ~prefill
      | Harris -> instance (module T) (module struct type tctx = T.tctx include Era_native.N_harris.Make (T) end) g ~ops ~offset ~prefill
    in
    ( inst,
      fun () ->
        Some
          {
            read_link = T.layer g Timed.read_link;
            begin_op = T.layer g Timed.begin_op;
            retire = T.layer g Timed.retire;
            alloc = T.layer g Timed.alloc;
            neutralized = T.neutralizations g;
          } )
  in
  { cname; build = (fun ~traced:t -> if t then traced else plain) }

(* The schemes the end-to-end metrics name; [none] (no reclamation)
   joins them in the traced run as the SMR-free baseline. *)
let scheme_cells =
  [
    cell "ebr" Michael (module Era_native.N_ebr);
    cell "debra" Michael (module Era_native.N_debra);
    cell "hp" Michael (module Era_native.N_hp);
    cell "ibr" Michael (module Era_native.N_ibr);
    cell "harris_ebr" Harris (module Era_native.N_ebr);
  ]

let none_cell = cell "none" Michael (module Era_native.N_none)

(* One window's outcome. *)
type window = {
  w_cell : string;
  w_traced : bool;
  w_mops : float;
  w_ops : int;
  w_elapsed_s : float;
  w_stats : Nsmr.stats;
  w_layers : layers option;
}

let check_window checks ~mix w contents =
  let s = w.w_stats in
  let what fmt = Printf.sprintf ("native %s: " ^^ fmt) w.w_cell in
  let rec strictly_sorted = function
    | a :: (b :: _ as tl) -> a < b && strictly_sorted tl
    | _ -> true
  in
  Perfbench.check checks (strictly_sorted contents)
    ~what:(what "final list is unsorted or holds duplicates");
  Perfbench.check checks
    (List.for_all (fun k -> k >= 1 && k <= max (max_key mix.keys) (2 * mix.prefill)) contents)
    ~what:(what "final list holds a key outside the key space");
  Perfbench.check checks
    (s.Nsmr.reclaimed >= 0
    && s.Nsmr.reclaimed <= s.Nsmr.retired
    && s.Nsmr.backlog = s.Nsmr.retired - s.Nsmr.reclaimed)
    ~what:(what "stats invariants broken (retired %d reclaimed %d backlog %d)"
             s.Nsmr.retired s.Nsmr.reclaimed s.Nsmr.backlog)

let run_window ((c : cell), traced, ((inst : instance), layers)) =
  let r =
    Throughput.run_workers ~label:c.cname ~scheme:c.cname ~structure:"list" ~domains
      ~ops_per_domain ~make_worker:inst.make_worker ~stats:inst.stats ()
  in
  ( {
      w_cell = c.cname;
      w_traced = traced;
      w_mops = r.Throughput.mops;
      w_ops = r.Throughput.total_ops;
      w_elapsed_s = r.Throughput.elapsed_s;
      w_stats = inst.stats ();
      w_layers = layers ();
    },
    inst.contents () )

(* One round over [slots], the (cell, traced) pairs: every cell built
   and prefilled (the round's set-up time), then one window per cell,
   starting at cell [r mod n]. Round [r] reads the op arrays from
   position [r * ops_per_domain] on, so rounds see different stretches
   of them. *)
let round ~mix ~ops ~checks slots r =
  let n = Array.length slots in
  let t0 = Unix.gettimeofday () in
  let offset = r * ops_per_domain in
  let built =
    Array.map
      (fun (c, traced) -> (c, traced, c.build ~traced ~ops ~offset ~prefill:mix.prefill))
      slots
  in
  let setup_s = Unix.gettimeofday () -. t0 in
  let windows = ref [] in
  for i = 0 to n - 1 do
    let w, contents = run_window built.((i + r) mod n) in
    check_window checks ~mix w contents;
    windows := w :: !windows
  done;
  (List.rev !windows, setup_s)

type result = {
  windows : window list;  (** every timed window, all rounds *)
}

let windows_of res ~cell ~traced =
  List.filter (fun w -> w.w_cell = cell && w.w_traced = traced) res.windows

(* A cell's throughput over all its timed windows: total operations
   over total time. The per-window rates of some cells are bimodal from
   round to round (ibr on read-hot swings between ~0.9 and ~1.9 Mops),
   and a median of a two-mode sample jumps between the modes from run to
   run; the pooled rate moves only with the share of slow windows. *)
let pooled_mops res ~cell ~traced =
  let ws = windows_of res ~cell ~traced in
  let ops = List.fold_left (fun a w -> a + w.w_ops) 0 ws
  and dt = List.fold_left (fun a w -> a +. w.w_elapsed_s) 0. ws in
  float_of_int ops /. dt /. 1e6

let mops_metric name res ~cell =
  Perfbench.metric
    ~samples:(List.map (fun w -> w.w_mops) (windows_of res ~cell ~traced:false))
    name "Mops/s"
    (pooled_mops res ~cell ~traced:false)

let end_to_end res =
  List.map (fun c -> mops_metric ("native.mops." ^ c.cname) res ~cell:c.cname) scheme_cells

(* Per-layer metrics of a traced run, whose rounds hold each scheme
   cell twice (plain and traced) plus the plain [none] baseline. *)
let per_layer res =
  let med = Perfbench.median in
  let pooled cell traced = pooled_mops res ~cell ~traced in
  let none_mops = pooled "none" false in
  let per_scheme (c : cell) =
    let s = c.cname in
    let traced = List.filter (fun w -> w.w_cell = s && w.w_traced) res.windows in
    let plain_w = List.filter (fun w -> w.w_cell = s && not w.w_traced) res.windows in
    let over f = med (List.map f traced) in
    let over_plain f = med (List.map f plain_w) in
    let layer f w = match w.w_layers with Some l -> f l | None -> assert false in
    let per_op n w = float_of_int n /. float_of_int w.w_ops in
    let plain = pooled s false in
    let name n = Printf.sprintf "native.%s.%s" s n in
    let m n unit_ f = Perfbench.metric (name n) unit_ (over f) in
    let mp n unit_ f = Perfbench.metric (name n) unit_ (over_plain f) in
    [
      m "read_link_ns" "ns" (layer (fun l -> Timed.layer_ns l.read_link));
      m "read_link_per_op" "count" (fun w -> layer (fun l -> per_op l.read_link.calls w) w);
      m "begin_op_ns" "ns" (layer (fun l -> Timed.layer_ns l.begin_op));
      m "retire_ns" "ns" (layer (fun l -> Timed.layer_ns l.retire));
      m "alloc_ns" "ns" (layer (fun l -> Timed.layer_ns l.alloc));
      m "retire_per_op" "count" (fun w -> layer (fun l -> per_op l.retire.calls w) w);
      mp "reclaimed_per_retired" "ratio" (fun w ->
          Perfbench.ratio (float_of_int w.w_stats.Nsmr.reclaimed)
            (float_of_int w.w_stats.Nsmr.retired));
      mp "scans_per_kop" "count" (fun w -> 1000. *. per_op w.w_stats.Nsmr.scans w);
      mp "max_backlog" "nodes" (fun w -> float_of_int w.w_stats.Nsmr.max_backlog);
      Perfbench.metric (name "smr_share") "ratio" (1. -. Perfbench.ratio plain none_mops);
    ]
    @
    if s = "debra" then
      [ m "neutralized_per_kop" "count" (fun w -> layer (fun l -> 1000. *. per_op l.neutralized w) w) ]
    else []
  in
  (* What the [Timed] wrapper costs each cell, against the same cell
     untraced in the same rounds. *)
  let overhead =
    List.map (fun (c : cell) -> 1. -. (pooled c.cname true /. pooled c.cname false)) scheme_cells
  in
  List.concat_map per_scheme scheme_cells
  @ [
      mops_metric "native.none.mops" res ~cell:"none";
      Perfbench.median_metric "native.trace_overhead_share" "ratio" overhead;
    ]
