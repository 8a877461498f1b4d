(* Per-worker work-stealing deque for the explorer's search.

   Chase–Lev shape — the owner pushes and pops at the bottom (LIFO,
   which keeps the frontier depth-first and bounded), thieves take from
   the top (the oldest, typically shallowest and therefore largest,
   subtrees) — but mutex-protected rather than lock-free: steals only
   happen when a thief's own deque is empty, so the lock is uncontended
   in steady state and correctness is by inspection instead of by a
   memory-model argument. Items are exploration work items, microseconds
   to generate and often milliseconds to process; a mutex per operation
   is far below the noise floor.

   Deadlock discipline: a thief holds the victim's lock only while
   copying items out ([steal_half] returns them), never while touching
   its own deque — no operation ever holds two deque locks. *)

type 'a t = {
  m : Mutex.t;
  mutable buf : 'a option array;  (* circular; [None] = empty slot *)
  mutable head : int;  (* steal end; index of the oldest item *)
  mutable size : int;
}

let create () = { m = Mutex.create (); buf = Array.make 64 None; head = 0; size = 0 }

let grow t =
  let cap = Array.length t.buf in
  let nbuf = Array.make (cap * 2) None in
  for i = 0 to t.size - 1 do
    nbuf.(i) <- t.buf.((t.head + i) mod cap)
  done;
  t.buf <- nbuf;
  t.head <- 0

(* Owner end. *)
let push t x =
  Mutex.lock t.m;
  if t.size = Array.length t.buf then grow t;
  t.buf.((t.head + t.size) mod Array.length t.buf) <- Some x;
  t.size <- t.size + 1;
  Mutex.unlock t.m

let pop t =
  Mutex.lock t.m;
  let r =
    if t.size = 0 then None
    else begin
      let i = (t.head + t.size - 1) mod Array.length t.buf in
      let x = t.buf.(i) in
      t.buf.(i) <- None;
      t.size <- t.size - 1;
      x
    end
  in
  Mutex.unlock t.m;
  r

(* Thief end: take (up to) half the victim's items, oldest first. The
   returned list preserves age order, so a thief that pushes them into
   its own deque and pops LIFO continues with the victim's
   newest-stolen item — the usual steal-half locality compromise.
   [Mutex.protect]: should the slot invariant ever break, the assertion
   must reach the thief's caller rather than leave the lock held and
   hang every other domain on it. *)
let steal_half t =
  Mutex.protect t.m (fun () ->
      let n = (t.size + 1) / 2 in
      let acc = ref [] in
      let cap = Array.length t.buf in
      for k = n - 1 downto 0 do
        let i = (t.head + k) mod cap in
        (match t.buf.(i) with
        | Some x -> acc := x :: !acc
        | None -> assert false);
        t.buf.(i) <- None
      done;
      t.head <- (t.head + n) mod cap;
      t.size <- t.size - n;
      !acc)

let length t =
  Mutex.lock t.m;
  let n = t.size in
  Mutex.unlock t.m;
  n
