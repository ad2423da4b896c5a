(** Cooperative per-domain execution guard for supervised tasks.

    A guard bounds one task's execution with a wall-clock deadline and
    an event-count ceiling, and publishes a heartbeat the executor's
    watchdog can read from another domain. The engine's dispatch loop
    calls {!on_event} once per executed event, so both limits fire {e
    inside} the task as ordinary exceptions — a hung simulation unwinds
    cleanly instead of wedging its worker domain. Tasks stuck outside
    any engine never reach {!on_event}; their stale heartbeat is the
    watchdog's out-of-band signal (see
    {!Pcc_experiments.Runner}).

    Like the trace collector, the guard is per-domain state: until a
    guard is installed somewhere, {!active} is a single atomic load and
    branch — the only cost unguarded runs pay. *)

exception Deadline_exceeded of { elapsed : float; limit : float }
(** The wall clock passed the installed deadline. Checked every few
    hundred events, so delivery lags the deadline by well under a
    millisecond at normal event rates. *)

exception Event_budget_exceeded of { events : int; limit : int }
(** The task executed more events (across {e all} engines it drives)
    than its installed ceiling. *)

val install :
  ?deadline:float ->
  ?max_events:int ->
  ?heartbeat:float Atomic.t ->
  clock:(unit -> float) ->
  unit ->
  unit
(** [install ~clock ()] guards the current domain until {!uninstall}.
    [deadline] is in wall-clock seconds from now; [max_events] caps
    total executed events; [heartbeat] is an atomic the guard stamps
    with [clock ()] at install time and on every deadline check, for an
    external watchdog to poll. [clock] must be monotone enough to
    compare against a deadline (e.g. [Unix.gettimeofday]).
    @raise Invalid_argument if [deadline <= 0] or [max_events <= 0]. *)

val uninstall : unit -> unit
(** Remove the current domain's guard; {!on_event} becomes a no-op. *)

val active : unit -> bool
(** Whether the current domain has a guard installed. *)

val on_event : unit -> unit
(** Called by [Engine] once per dispatched event when {!active}.
    @raise Deadline_exceeded or @raise Event_budget_exceeded when a
    limit is hit. *)

val events : unit -> int
(** Events counted by the current domain's guard (0 when none). *)

val is_guard_exn : exn -> bool
(** Whether an exception is one of the two guard limits — the
    executor reports these as timeouts rather than crashes. *)
