(* A scheme wrapper for the traced run: counts every call into the SMR
   layer and times one call in [sample_every] with the monotonic clock.
   Each domain owns its counter block, so counting adds no sharing
   between domains; the blocks are summed once the window has ended.

   [sample_every] is prime: the schemes amortize work over powers of two
   (an epoch advance every 32 begin_ops, a scan every 64 retires), and a
   power-of-two period would time the same phase of that cycle every
   time. *)

module Flight = Era_obs.Flight

let sample_every = 61

(* Cost of one back-to-back pair of clock reads, subtracted from every
   timed sample. Set by [calibrate] before any traced window. *)
let clock_ns = ref 0

let calibrate () =
  let d =
    Array.init 20_001 (fun _ ->
        let t0 = Flight.now_ns () in
        Flight.now_ns () - t0)
  in
  Array.sort compare d;
  clock_ns := d.(Array.length d / 2)

(* Slot layout of a counter block: calls, sampled ns, samples per layer,
   then the neutralization count. *)
let read_link = 0
let begin_op = 3
let retire = 6
let alloc = 9
let neutralized = 12
let width = 16

type layer = { calls : int; sampled_ns : int; samples : int }

let layer_ns l = if l.samples = 0 then 0. else float_of_int l.sampled_ns /. float_of_int l.samples

module Make (S : Era_native.Nsmr.S) : sig
  include Era_native.Nsmr.S

  val layer : t -> int -> layer
  (** Counters of one layer ([read_link], [begin_op], [retire], [alloc]),
      summed over domains. Read only at a quiescent point. *)

  val neutralizations : t -> int
end = struct
  let name = S.name

  type t = { inner : S.t; blocks : int array array }
  type tctx = { c : S.tctx; b : int array }

  let create ~ndomains =
    {
      inner = S.create ~ndomains;
      blocks = Array.init ndomains (fun _ -> Array.make width 0);
    }

  let thread t d = { c = S.thread t.inner d; b = t.blocks.(d) }

  (* Bump the call count and say whether this call is timed. *)
  let[@inline] tick b slot =
    let k = Array.unsafe_get b slot + 1 in
    Array.unsafe_set b slot k;
    k mod sample_every = 0

  let[@inline] record b slot t0 =
    Array.unsafe_set b (slot + 1)
      (Array.unsafe_get b (slot + 1) + (Flight.now_ns () - t0 - !clock_ns));
    Array.unsafe_set b (slot + 2) (Array.unsafe_get b (slot + 2) + 1)

  let begin_op x =
    if tick x.b begin_op then begin
      let t0 = Flight.now_ns () in
      S.begin_op x.c;
      record x.b begin_op t0
    end
    else S.begin_op x.c

  let end_op x = S.end_op x.c

  let alloc x key =
    if tick x.b alloc then begin
      let t0 = Flight.now_ns () in
      let n = S.alloc x.c key in
      record x.b alloc t0;
      n
    end
    else S.alloc x.c key

  let retire x n =
    if tick x.b retire then begin
      let t0 = Flight.now_ns () in
      S.retire x.c n;
      record x.b retire t0
    end
    else S.retire x.c n

  let read_link x n =
    match
      if tick x.b read_link then begin
        let t0 = Flight.now_ns () in
        let l = S.read_link x.c n in
        record x.b read_link t0;
        l
      end
      else S.read_link x.c n
    with
    | l -> l
    | exception Era_native.Nsmr.Neutralized ->
      x.b.(neutralized) <- x.b.(neutralized) + 1;
      raise Era_native.Nsmr.Neutralized

  let backlog t = S.backlog t.inner
  let max_backlog t = S.max_backlog t.inner
  let reclaimed t = S.reclaimed t.inner
  let stats t = S.stats t.inner
  let attach_flight t f = S.attach_flight t.inner f
  let domain_backlog t d = S.domain_backlog t.inner d
  let domain_lag t d = S.domain_lag t.inner d

  let sum t slot = Array.fold_left (fun acc b -> acc + b.(slot)) 0 t.blocks

  let layer t slot =
    { calls = sum t slot; sampled_ns = sum t (slot + 1); samples = sum t (slot + 2) }

  let neutralizations t = sum t neutralized
end
