(** Bounded two-lock MPMC queue with explicit shed-on-full — the
    admission primitive behind `era_serve`'s backpressure.

    Shape: a Michael–Scott two-lock linked queue (one mutex for pushers
    at the tail, one for poppers at the head, a dummy node between them
    so the two ends never contend on the same lock while the queue is
    non-empty), plus an atomic size used as a reservation counter so
    capacity is enforced exactly: {!try_push} either reserves a slot and
    enqueues, or returns [false] {e immediately} — admission never
    blocks, callers learn about saturation synchronously and can back
    off (the daemon turns [false] into a "shed" reply).

    Shutdown has two modes, both of which wake every blocked {!pop}:
    - {!close}: drain-then-stop. No further pushes are admitted; {!pop}
      keeps serving the remaining items and returns [None] only once the
      queue is empty.
    - {!close_now}: immediate. Remaining items are removed and returned
      to the caller (so no job is silently lost); every blocked and
      future {!pop} returns [None].

    Safe for concurrent use from any number of domains or threads. *)

type 'a t

val create : capacity:int -> unit -> 'a t
(** [capacity] is clamped to at least 1. *)

val capacity : 'a t -> int

val try_push : 'a t -> 'a -> bool
(** [false] when the queue is at capacity ({e shed}) or closed. Never
    blocks. *)

val pop : 'a t -> 'a option
(** Block until an item is available ([Some]) or the queue can never
    produce one again ([None]: {!close_now} was called, or {!close} was
    and the queue is drained). *)

val try_pop : 'a t -> 'a option
(** Non-blocking {!pop}: [None] means "nothing available right now" (or
    closed-and-drained) — it carries no liveness information. *)

val close : 'a t -> unit
(** Drain-then-stop; idempotent. Wakes every blocked {!pop}. *)

val close_now : 'a t -> 'a list
(** Stop immediately; returns the abandoned items in FIFO order.
    Idempotent (later calls return []). Implies {!close}. *)

val closed : 'a t -> bool
(** [true] after {!close} or {!close_now} — pushes are refused; pops may
    still be serving a drain. *)

val length : 'a t -> int
(** Items currently queued (including slots mid-reservation) — a racy
    telemetry snapshot. *)
