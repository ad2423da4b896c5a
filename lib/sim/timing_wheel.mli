(** Hierarchical timing wheel: O(1) schedule, near-O(1) dispatch.

    The engine's event queue. Same interface as {!Event_heap}, its
    tested reference, and — crucially — the same exact dispatch order:
    events come out in [(time, sequence)] order, time ties breaking in
    insertion order, bit-for-bit identical to the heap's. Internally events live in a
    flat structure-of-arrays arena chained into 3 levels of 65536 slots
    (1 µs ticks, 2^48 ticks ≈ 8.9 simulated years of horizon); same-tick
    events
    are totally ordered through a small ready-heap keyed on the exact
    float time, which is what upholds the contract despite tick
    quantization. Events beyond the horizon wait in an overflow heap.

    Complexity: push is O(1) (amortized; a far-future push may later
    pay its O(levels) cascade), pop is O(1 + slot-scan) amortized, and
    neither depends on the number of pending events — at a million
    pending timers the heap's O(log n) pointer-chasing sift loops are
    the difference (see [bench/main.exe --sched]). Cancellation is
    lazy with an exact live count, like the heap's; a cancel-heavy
    workload triggers an amortized sweep so dead entries cannot strand
    more than half the arena. *)

type 'a t
(** A wheel carrying payloads of type ['a]. *)

type handle = Handle.t
(** Shared with {!Event_heap}, so the two stay interchangeable in the
    differential tests. *)

val tick_seconds : float
(** Tick granularity (1 µs). Events less than a tick apart may share a
    slot; the ready-heap restores their exact relative order. *)

val create : dummy:'a -> unit -> 'a t
(** [create ~dummy ()] is an empty wheel. [dummy] is a throwaway value
    of the payload type used to seed the flat payload arena and to
    scrub freed slots (so the wheel never pins a dispatched payload);
    it is never returned. Storing payloads unboxed keeps {!push} free
    of minor-heap allocation. *)

val is_empty : 'a t -> bool

val size : 'a t -> int
(** Live (non-cancelled) entries; exact, O(1). *)

val push : 'a t -> time:float -> 'a -> handle

val push_unit : 'a t -> time:float -> 'a -> unit
(** Like {!push} but uncancellable: no handle is allocated or stored,
    which keeps the dominant fire-and-forget events (packet deliveries)
    allocation-free. Dispatch order is identical to {!push} — both draw
    from the same sequence counter. *)

val pop : 'a t -> (float * 'a) option
(** Earliest live event in exact [(time, seq)] order. *)

val pop_cb : 'a t -> (float -> 'a -> unit) -> bool
(** {!pop} in continuation style: calls [k time v] on the earliest live
    event and returns [true], or returns [false] on an empty wheel
    without calling [k]. Allocates nothing (no option/tuple), which is
    measurable on the engine dispatch loop. The event is consumed — and
    its arena slot freed — before [k] runs, so [k] may push. *)

val pop_le : 'a t -> max_time:float -> (float * 'a) option
(** [pop] only if the earliest live event fires at or before
    [max_time]; [None] removes nothing live. *)

val pop_le_cb : 'a t -> max_time:float -> (float -> 'a -> unit) -> bool
(** {!pop_le} in continuation style (see {!pop_cb}): [false] both when
    the wheel is empty and when the earliest live event lies beyond
    [max_time]. *)

val peek_time : 'a t -> float option
val cancel : handle -> unit
val cancelled : handle -> bool

val stats : 'a t -> int * int * int * int * int
(** [(arena_capacity, arena_in_use, ready_len, overflow_len,
    wheel_resident)] — introspection for tests and benchmarks. *)
