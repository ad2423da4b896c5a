(** Supervised execution of experiment task sweeps.

    {!Runner} is the fast path and assumes every task returns. This
    layer assumes tasks misbehave — hang, crash, livelock — and
    guarantees the sweep still terminates with a per-task outcome and
    partial results:

    - {b in-band limits}: each attempt runs under a
      {!Pcc_sim.Task_guard}, so a wall-clock deadline or event-count
      ceiling raises inside the task at the engine's dispatch loop and
      the worker survives to run the next task;
    - {b out-of-band watchdog}: with a deadline configured and
      [jobs >= 2], the coordinating domain polls per-slot heartbeats
      (stamped by the guard from inside the engine). A task that hangs
      {i outside} the engine — where the in-band guard never runs — is
      abandoned once it is [deadline + grace] stale: its outcome becomes
      [Timed_out], the wedged domain is leaked until process exit, and a
      replacement worker is spawned so the pool keeps its width;
    - {b retries}: failures that [policy.transient] classifies as
      transient are re-queued with bounded exponential backoff
      ([backoff * 2^(attempt-1)], capped at [backoff_cap]); a task that
      exhausts its retries is quarantined. Timeouts are never retried.
    - {b forensics}: when [forensics_dir] is set, every final failure
      writes [<dir>/<index-label>/report.txt] (exception, backtrace,
      seed, repro command line) plus the failing domain's trace ring
      ([trace.json] / [decisions.log] / [trace.csv]) when one was
      recording.

    Determinism: results are slotted by task index and tasks are pure
    thunks, so a sweep whose tasks all succeed produces results
    byte-identical to plain {!Runner} execution at any job count. *)

type 'a task = {
  label : string;  (** for reports and forensics paths *)
  seed : int option;  (** the derived seed the task consumes, if any *)
  repro : string option;  (** exact command line reproducing this task *)
  run : unit -> 'a;  (** pure thunk; retries re-run it verbatim *)
}

type failure = { attempt : int; exn_text : string; backtrace : string }

type status =
  | Completed of { retries : int }  (** succeeded, possibly after retries *)
  | Timed_out of { attempts : int }
      (** guard deadline/event ceiling, or watchdog abandonment *)
  | Crashed of failure  (** raised a non-transient exception *)
  | Quarantined of { attempts : int; last : failure }
      (** transient failures exhausted the retry budget *)

type outcome = {
  index : int;
  label : string;
  seed : int option;
  repro : string option;
  status : status;
  failures : failure list;  (** newest first *)
  forensics : string option;  (** bundle directory, when one was written *)
}

type report = {
  total : int;
  outcomes : outcome array;  (** indexed by task position *)
  ok : int;  (** completed on the first attempt *)
  retried : int;  (** completed after at least one retry *)
  timed_out : int;
  crashed : int;
  quarantined : int;
}

type policy = {
  jobs : int;  (** worker domains; [1] runs inline in the caller *)
  deadline : float option;  (** per-attempt wall-clock budget, seconds *)
  max_events : int option;  (** per-attempt engine event ceiling *)
  retries : int;  (** max re-runs after a transient failure *)
  backoff : float;  (** first retry delay, seconds *)
  backoff_cap : float;  (** upper bound on any retry delay *)
  grace : float;  (** heartbeat staleness beyond [deadline] before the
                      watchdog abandons a worker *)
  poll : float;  (** watchdog polling period, seconds *)
  transient : exn -> bool;  (** which failures are worth retrying *)
  forensics_dir : string option;  (** root for failure bundles *)
  forensic_trace : bool;
      (** record each attempt into a private trace ring so failures can
          dump their recent history even in otherwise untraced runs *)
  repro_context : string option;
      (** sweep-level repro command, used for tasks without their own *)
}

val default_policy : policy
(** [jobs = 1], no deadline or event ceiling, no retries
    ([backoff = 0.1], [backoff_cap = 2.0] when enabled), [grace = 1.0],
    [poll = 0.05], nothing transient, no forensics. *)

val run : ?policy:policy -> 'a task list -> 'a option list * report
(** Run every task to a final outcome. The result list is positional:
    [None] marks a task that failed. Never raises on task failure; the
    report says what happened. Failing outcomes are also appended to the
    process-wide tally (see {!failures}).
    @raise Invalid_argument on a malformed policy ([jobs < 1],
    negative [retries]/[backoff]/[grace], non-positive [poll]). *)

val failed : report -> bool
(** Whether any task ended in a non-[Completed] status. *)

val summary_line : report -> string
(** One-line sweep summary naming each failing task and its status —
    what CLIs print to stderr before exiting nonzero. *)

val pp_report : Format.formatter -> report -> unit
(** Multi-line per-task listing of the report. *)

val status_name : status -> string
(** ["ok"], ["retried n"], ["timed_out"], ["crashed"],
    ["quarantined"]. *)

val is_failure : status -> bool

(** {2 Process-wide failure tally}

    CLI front-ends render experiments through [Exp_registry] and only
    get strings back; {!run} also records failing outcomes here so
    [pcc_sim] can exit nonzero with a summary without threading reports
    through every render signature. *)

val failures : unit -> outcome list
(** All failing outcomes recorded by {!run} since the last
    {!reset_failures}, oldest first. Thread-safe. *)

val reset_failures : unit -> unit
