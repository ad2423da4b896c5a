(** Binary min-heap of timestamped events.

    Keys are [(time, sequence)] pairs: ties on time break in insertion
    order, which keeps simultaneous events deterministic. Cancellation is
    lazy — a cancelled event stays in the heap until it surfaces at the
    root, which is O(1) per cancellation and fine for timer-heavy
    workloads such as TCP retransmission timers — but the heap maintains
    an exact live-entry count, so {!size} and {!is_empty} are O(1) and
    never over-report dead entries buried below the root.

    Internally the timestamps live in their own [float array] (unboxed),
    separate from the payload cells, so the sift loops compare keys
    without chasing a pointer per element. *)

type 'a t
(** A heap carrying payloads of type ['a]. *)

type handle = Handle.t
(** A handle onto an inserted event, usable to cancel it. The concrete
    type is shared with {!Timing_wheel}, the engine's queue, which this
    heap is the tested reference for. *)

val create : unit -> 'a t
(** [create ()] is an empty heap. *)

val is_empty : 'a t -> bool
(** Whether the heap holds no live (non-cancelled) events. O(1). *)

val size : 'a t -> int
(** Number of live events currently stored — exact even when cancelled
    entries are still buried in the middle of the heap. O(1). *)

val push : 'a t -> time:float -> 'a -> handle
(** [push t ~time v] inserts [v] at key [time] and returns a cancellation
    handle. *)

val push_unit : 'a t -> time:float -> 'a -> unit
(** Like {!push} but uncancellable and handle-free — fire-and-forget
    events skip the per-entry handle allocation. Dispatch order is
    identical to {!push} (same sequence counter). *)

val pop : 'a t -> (float * 'a) option
(** [pop t] removes and returns the earliest live event, or [None] if the
    heap is empty. Cancelled entries are discarded transparently. *)

val pop_cb : 'a t -> (float -> 'a -> unit) -> bool
(** [pop_cb t k] is {!pop} in continuation style: calls [k time v] on
    the earliest live event and returns [true], or returns [false] on an
    empty queue without calling [k]. Allocates nothing — the option and
    tuple of {!pop} are measurable at millions of events per second on
    the engine dispatch loop. The event is consumed before [k] runs. *)

val pop_le : 'a t -> max_time:float -> (float * 'a) option
(** [pop_le t ~max_time] is [pop t] if the earliest live event's time is
    [<= max_time], and [None] (removing nothing live) otherwise. A single
    heap traversal — callers driving a clock toward a deadline avoid the
    peek-then-pop double descent. *)

val peek_time : 'a t -> float option
(** [peek_time t] is the timestamp of the earliest live event, if any,
    without removing it. *)

val cancel : handle -> unit
(** [cancel h] marks the event behind [h] as dead; it will never be
    returned by {!pop} and it immediately stops counting toward {!size}.
    Cancelling twice, or cancelling an already-popped event, is
    harmless. *)

val cancelled : handle -> bool
(** Whether the handle has been cancelled (popped events don't count). *)
