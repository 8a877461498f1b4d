(** Per-worker deque for the explorer's work-stealing search. With a
    single worker its LIFO {!pop} order is the search's DFS order.

    Owner operations ({!push}, {!pop}) work LIFO at the bottom; thieves
    {!steal_half} from the top (oldest items first). Mutex-protected —
    correctness by inspection rather than by a lock-free memory-model
    argument; steals only happen when the thief is out of work, so the
    lock is uncontended in steady state. No operation ever holds two
    deque locks, so any lock order across deques is deadlock-free.

    Quiescence detection is the {e caller's} job (the explorer keeps a
    global atomic count of outstanding items): an empty deque says
    nothing about other workers' deques or in-flight items. *)

type 'a t

val create : unit -> 'a t

val push : 'a t -> 'a -> unit
(** Owner end (bottom). *)

val pop : 'a t -> 'a option
(** Owner end (bottom): the most recently pushed item. *)

val steal_half : 'a t -> 'a list
(** Remove up to half the items from the top, oldest first ([[]] if the
    deque is empty). Safe to call from any domain. *)

val length : 'a t -> int
(** Telemetry snapshot; immediately stale under concurrency. *)
