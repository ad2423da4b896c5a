(** Discrete-event simulation engine.

    An engine owns a simulated clock and an event queue (a
    {!Timing_wheel}: O(1) schedule and near-O(1) dispatch at millions of
    pending events, time ties broken in scheduling order). Components schedule
    closures at absolute or relative times; {!run} executes them in
    timestamp order, advancing the clock. All simulator state changes happen
    inside event callbacks, so a single engine is single-threaded and fully
    deterministic.

    The engine is hardened against two failure modes of event-driven code:

    - {b Raising callbacks.} An event callback that raises would otherwise
      unwind {!run} mid-step with no indication of {e which} event failed.
      Dispatch is exception-safe: the offending exception is wrapped in
      {!Event_error} together with the event's scheduled time, and the
      engine remains steppable (the clock has advanced, the event is
      consumed, the rest of the queue is intact). Under the {!Collect}
      policy errors are recorded in {!errors} and execution continues.
    - {b Livelock.} A zero-delay event that (transitively) reschedules
      itself at the current instant would spin {!run} forever without
      advancing the clock. A watchdog counts events executed without the
      clock moving and raises {!Livelock} once the stall budget is
      exceeded, turning a hang into a diagnosable error. [run ~max_events]
      additionally bounds the total number of events one call may execute.

    When a {!Task_guard} is installed in the running domain, dispatch
    additionally reports each event to it, so supervised tasks get
    wall-clock deadlines and cross-engine event ceilings delivered as
    exceptions from inside {!run} (see {!Task_guard}). *)

type t
(** A simulation engine. *)

type timer = Handle.t
(** A cancellable handle on a scheduled event. *)

type error_policy =
  | Raise  (** Wrap the exception in {!Event_error} and re-raise (default). *)
  | Collect
      (** Record [(time, exn)] in {!errors} and keep executing events. *)

type livelock_kind =
  | Stall  (** The stall budget was exceeded at one simulated instant. *)
  | Budget  (** [run ~max_events] executed its full event budget. *)

exception Event_error of { time : float; exn : exn }
(** Raised (under the {!Raise} policy) when an event callback raises:
    [time] is the instant the event fired, [exn] the original exception. *)

exception Livelock of { time : float; events : int; kind : livelock_kind }
(** Raised by the watchdog: [events] callbacks ran without the clock
    leaving [time] ({!Stall}), or a [run ~max_events] budget ran out
    ({!Budget}). *)

val create :
  ?now:float -> ?stall_budget:int -> ?on_error:error_policy -> unit -> t
(** [create ()] is a fresh engine with the clock at [now] (default 0).
    [stall_budget] (default 1_000_000) is the number of events that may
    execute at a single simulated instant before {!Livelock} is raised;
    legitimate bursts of simultaneous events are orders of magnitude
    smaller. @raise Invalid_argument if [stall_budget <= 0]. *)

val now : t -> float
(** [now t] is the current simulated time in seconds. *)

val schedule : t -> at:float -> (unit -> unit) -> timer
(** [schedule t ~at f] runs [f] when the clock reaches [at].
    @raise Invalid_argument if [at] is in the past. *)

val schedule_in : t -> after:float -> (unit -> unit) -> timer
(** [schedule_in t ~after f] runs [f] [after] seconds from now. Negative
    delays are clamped to zero (the event runs after already-queued events
    at the current instant). *)

val post : t -> at:float -> (unit -> unit) -> unit
(** {!schedule} without a cancellation handle: the event cannot be
    cancelled, and the queue allocates nothing beyond its arena slot.
    Use for fire-and-forget events on hot paths (packet deliveries).
    Ordering is identical to {!schedule} at the same time. *)

val post_in : t -> after:float -> (unit -> unit) -> unit
(** {!schedule_in}, handle-free (see {!post}). *)

val cancel : timer -> unit
(** [cancel timer] prevents a pending event from firing. Cancelling an
    already-fired or already-cancelled timer is harmless. *)

val pending : t -> int
(** Number of live events still queued. Exact: cancelled timers stop
    counting immediately, even while still buried in the wheel. *)

val set_stall_budget : t -> int -> unit
(** Adjust the livelock watchdog's per-instant event budget.
    @raise Invalid_argument if the budget is not positive. *)

val set_on_error : t -> error_policy -> unit
(** Switch how raising callbacks are handled (default {!Raise}). *)

val errors : t -> (float * exn) list
(** Errors collected so far under the {!Collect} policy, oldest first. *)

val clear_errors : t -> unit

val executed : t -> int
(** Total events executed over the engine's lifetime. *)

val total_executed : unit -> int
(** Process-wide tally of events executed by {e all} engines across all
    domains, for benchmark reporting (events/second). Engines flush
    their contribution once per {!run}/{!step} call, so concurrent
    readers may lag an in-flight [run] by that call's events. *)

val count_external : int -> unit
(** Add [n] externally-executed work items to {!total_executed} —
    for engine-free computations (e.g. the fluid-model game dynamics)
    whose per-step updates would otherwise be invisible to benchmark
    event counts. Thread-safe; non-positive [n] is ignored. *)

val step : t -> bool
(** [step t] executes the next event, if any; returns [false] when the
    queue is empty.
    @raise Event_error under the {!Raise} policy if the callback raises.
    @raise Livelock if the stall budget is exceeded. *)

val run : ?until:float -> ?max_events:int -> t -> unit
(** [run t] executes events until the queue drains, or — if [until] is
    given — until the next event would fire strictly after [until], in
    which case the clock is left at [until]. If [max_events] is given the
    call executes at most that many events before raising
    {!Livelock}[ {kind = Budget; _}]. *)

val run_for : ?max_events:int -> t -> float -> unit
(** [run_for t d] is [run t ~until:(now t +. d)]. *)
