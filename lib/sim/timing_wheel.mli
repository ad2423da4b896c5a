(** Hierarchical timing wheel: O(1) schedule, near-O(1) dispatch.

    The engine's event queue. Each entry carries a payload and an
    argument in two typed arena columns, so a caller can queue one
    shared action with a per-event argument instead of a closure per
    event. Dispatch order is exactly that of {!Event_heap}, its tested
    reference: events come out in [(time, sequence)] order, time ties
    breaking in insertion order, bit-for-bit identical to the heap's.
    Internally events live in a flat structure-of-arrays arena chained
    into 4 levels of 4096 slots (1 µs ticks, 2^48 ticks ≈ 8.9
    simulated years of horizon); same-tick events are totally ordered
    through a small ready-heap keyed on the exact float time, which is
    what upholds the contract despite tick quantization. Events beyond
    the horizon wait in an overflow heap. Level spans: 4.1 ms pages at
    level 0, 16.8 s at level 1, 19.1 h at level 2; an event within the
    cursor's 4.1 ms page is filed once, a packet delay or protocol timer
    up to 16.8 s ahead pays one cascade, and farther timers two or
    three. Creating a wheel allocates 64 KB of slot heads without
    initialising them (a head counts only while its slot's occupancy
    bit is set) and zero-fills only 4 KB of bitmaps, so
    a grid of many short simulations, one wheel each, does not pay for
    the horizon. Arena indices must stay below 2^31 (32-bit heads).

    Complexity: push is O(1) (amortized; a far-future push may later
    pay its O(levels) cascade), pop is O(1 + slot-scan) amortized, and
    neither depends on the number of pending events — at a million
    pending timers the heap's O(log n) pointer-chasing sift loops are
    the difference (see [bench/main.exe --sched]). Cancellation is
    lazy with an exact live count, like the heap's; a cancel-heavy
    workload triggers an amortized sweep so dead entries cannot strand
    more than half the arena. A handle can be re-armed ({!arm}) once it
    is no longer pending, which is the heap's cancel-then-push without
    a new handle. *)

type ('a, 'b) t
(** A wheel whose entries carry a payload of type ['a] and an argument
    of type ['b], kept in separate arena columns. *)

type handle = Handle.t
(** Shared with {!Event_heap}, so the two stay interchangeable in the
    differential tests. *)

val tick_seconds : float
(** Tick granularity (1 µs). Events less than a tick apart may share a
    slot; the ready-heap restores their exact relative order. *)

val create : dummy:'a -> dummy_arg:'b -> unit -> ('a, 'b) t
(** [create ~dummy ~dummy_arg ()] is an empty wheel. [dummy] and
    [dummy_arg] are throwaway values of the payload and argument types,
    used to seed the flat arena columns and to scrub freed slots (so the
    wheel never pins a dispatched payload or argument); they are never
    returned. Storing both unboxed keeps {!push} free of minor-heap
    allocation. *)

val is_empty : ('a, 'b) t -> bool

val size : ('a, 'b) t -> int
(** Live (non-cancelled) entries; exact, O(1). *)

val push : ('a, 'b) t -> time:float -> 'a -> 'b -> handle
(** [push t ~time v x] queues payload [v] with argument [x] and returns
    a fresh pending handle on it. Any finite time is exact, however far
    ahead.
    @raise Invalid_argument if [time] is negative, NaN or infinite (as
    do {!push_unit} and {!arm}). *)

val push_unit : ('a, 'b) t -> time:float -> 'a -> 'b -> unit
(** Like {!push} but uncancellable: no handle is allocated or stored,
    which keeps the dominant fire-and-forget events (packet deliveries)
    allocation-free. Dispatch order is identical to {!push} — both draw
    from the same sequence counter. *)

val idle : ('a, 'b) t -> handle
(** A handle on nothing yet: not pending, not cancelled, ready for
    {!arm}. *)

val arm : ('a, 'b) t -> handle -> time:float -> 'a -> 'b -> unit
(** [arm t h ~time v x] is {!push} reusing [h] instead of allocating a
    handle; same sequence counter, same order. [h] must not be pending
    (idle, popped or cancelled). Arming bumps [h]'s generation, so an
    entry a cancel left buried in the wheel never fires, even though
    [h] is pending again.
    @raise Invalid_argument if [h] is pending or was issued by another
    wheel. *)

val pop : ('a, 'b) t -> (float * 'a * 'b) option
(** Earliest live event in exact [(time, seq)] order. *)

val pop_cb : ('a, 'b) t -> (float -> 'a -> 'b -> unit) -> bool
(** {!pop} in continuation style: calls [k time v x] on the earliest
    live event and returns [true], or returns [false] on an empty wheel
    without calling [k]. Allocates nothing (no option/tuple), which is
    measurable on the engine dispatch loop. The event is consumed — its
    arena slot freed and its handle, if any, marked popped — before [k]
    runs, so [k] may push or re-arm. *)

val pop_le_cb :
  ('a, 'b) t -> max_time:float -> (float -> 'a -> 'b -> unit) -> bool
(** {!pop_cb} only if the earliest live event fires at or before
    [max_time]: [false] both when the wheel is empty and when the
    earliest live event lies beyond [max_time] (nothing live is
    removed). *)

val peek_time : ('a, 'b) t -> float option
val cancel : handle -> unit
val cancelled : handle -> bool

val stats : ('a, 'b) t -> int * int * int * int * int
(** [(arena_capacity, arena_in_use, ready_len, overflow_len,
    wheel_resident)] — introspection for tests and benchmarks. *)
