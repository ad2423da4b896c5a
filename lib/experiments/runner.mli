(** The executor for embarrassingly parallel experiment sweeps.

    The paper's evaluation is hundreds of independent simulation runs;
    this module fans them out across cores (OCaml 5 domains) while
    keeping the result of a run {b byte-identical} to sequential
    execution, and guarantees a sweep terminates with a per-task
    outcome even when tasks hang, crash or livelock.

    {2 Determinism contract}

    - Results land in slots indexed by task position and come back in
      order: the output never depends on completion order.
    - Seeds must be derived from [(master_seed, task_index)] with
      {!derive_seed} (or any other pure function of the index) {e before}
      tasks are submitted — never from scheduling, wall-clock time, or
      shared RNG streams consumed inside tasks.
    - Tasks must not share mutable state. Each simulation task builds its
      own [Engine]/[Rng]; {!Pcc_scenario.Transport.spec} values are
      immutable and safe to share.
    - Each task runs exactly once. A pure, seeded task that failed would
      fail the same way again, so nothing is re-run: a task that only
      succeeds on a second run has broken this contract, and a second
      run would hide that.
    - If several tasks fail, {!map} re-raises the exception of the
      {e lowest-indexed} failing task — again independent of scheduling.

    Under these rules, [--jobs 1] and [--jobs N] produce identical
    tables, which the test suite checks.

    {2 Supervision}

    The settings of a {!t} decide how much the executor polices its
    tasks:

    - {b in-band limits}: with a [deadline] or [max_events] each task
      runs under a {!Pcc_sim.Task_guard}, so the limit raises inside the
      task at the engine's dispatch loop and the worker survives;
    - {b out-of-band watchdog}: with a [deadline] and [jobs >= 2], the
      calling domain polls per-slot heartbeats (stamped by the guard
      from inside the engine). A task that hangs {i outside} the engine
      is abandoned once it is [deadline + 1 s] stale: its outcome
      becomes [Timed_out], the wedged domain is leaked until process
      exit, and a replacement worker keeps the sweep's width;
    - {b forensics}: with a [forensics_dir], every failure writes
      [<dir>/<index-label>/report.txt] (exception, backtrace, seed,
      repro command line) plus the failing domain's trace ring, as
      {!finish_trace} writes it, when one was recording. *)

type t
(** An executor: a worker count plus supervision settings. Holds no
    domains between sweeps; each sweep spawns its own workers. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — the worker count that matches
    the hardware. *)

val create :
  ?jobs:int ->
  ?deadline:float ->
  ?max_events:int ->
  ?forensics_dir:string ->
  ?forensic_trace:bool ->
  ?repro_context:string ->
  unit ->
  t
(** [create ()] is an executor with [jobs] workers (default
    {!default_jobs}); [jobs = 1] runs every task inline in the caller.
    [deadline] is each task's wall-clock budget in seconds and
    [max_events] its engine event ceiling (default: neither, and no
    guard is installed). [forensics_dir] roots the failure bundles
    (default: none). [forensic_trace] records each task into a private
    trace ring so failures can dump their recent history even in
    otherwise untraced runs. [repro_context] is the sweep-level repro
    command written for tasks without their own.
    @raise Invalid_argument if [jobs < 1] or a limit is not positive. *)

val jobs : t -> int
(** Worker count. *)

val with_pool : ?jobs:int -> (t -> 'a) -> 'a
(** [with_pool ~jobs f] is [f (create ~jobs ())]. *)

(** {2 Tasks and outcomes} *)

type 'a task = {
  label : string;  (** for reports and forensics paths *)
  seed : int option;  (** the derived seed the task consumes, if any *)
  repro : string option;  (** exact command line reproducing this task *)
  run : unit -> 'a;  (** pure thunk, run exactly once *)
}

type failure = { exn_text : string; backtrace : string }

type status =
  | Completed
  | Timed_out  (** guard deadline/event ceiling, or watchdog abandonment *)
  | Crashed of failure  (** the task raised *)

type outcome = {
  index : int;
  label : string;
  seed : int option;
  repro : string option;
  status : status;
  forensics : string option;  (** bundle directory, when one was written *)
}

type report = {
  total : int;
  outcomes : outcome array;  (** indexed by task position *)
  ok : int;
  timed_out : int;
  crashed : int;
}

(** {2 Running sweeps} *)

val run : t -> 'a task list -> 'a option list * report
(** Run every task to a final outcome. The result list is positional:
    [None] marks a task that failed. Never raises on task failure; the
    report says what happened. Failing outcomes are also appended to the
    process-wide tally (see {!failures}). *)

val map : t -> ('a -> 'b) -> 'a array -> 'b array
(** [map t f inputs] applies [f] to every input on the executor and
    returns the results {b in input order}. Strict: after the sweep
    completes, re-raises the lowest-indexed failing task's exception
    (a watchdog abandonment raises [Failure]). Nothing is added to the
    tally. *)

val map_list : t -> ('a -> 'b) -> 'a list -> 'b list
(** {!map} over lists. *)

val derive_seed : master:int -> index:int -> int
(** [derive_seed ~master ~index] is a non-negative seed mixed from the
    pair with a splitmix64 finalizer: decorrelated across indices,
    deterministic, and independent of scheduling. *)

val failed : report -> bool
(** Whether any task ended in a non-[Completed] status. *)

val summary_line : report -> string
(** One-line sweep summary naming each failing task and its status. *)

val status_name : status -> string
(** ["ok"], ["timed_out"] or ["crashed"]. *)

val is_failure : status -> bool

(** {2 Front ends}

    [pcc_sim exp] and the bench harness share these parts of a sweep. *)

val make_dirs : string list -> (unit, string) result
(** Creates every directory and its missing parents, before any
    simulation runs, so a path that cannot exist fails up front.
    [Error] is the [Sys_error] message. *)

val finish_trace :
  dir:string -> Pcc_trace.Collector.t -> (string, string) result
(** [finish_trace ~dir c] writes [c] into [dir] as [trace.json] (Chrome
    trace), [decisions.log] and [trace.csv], then uninstalls the
    domain's collector. [Ok] is the line ["trace: N events held (E
    emitted, D overwritten) -> DIR"]; [Error] the [Sys_error] message. *)

val traced :
  string option ->
  jobs:int ->
  (jobs:int -> 'a) ->
  'a * (string, string) result option
(** [traced dir ~jobs f] is [(f ~jobs, None)] without a directory. With
    one it installs a fresh collector, runs [f ~jobs:1] (trace records
    are domain-local; a larger [jobs] is noted on stderr) and
    {!finish_trace}s into [dir]. *)

(** {2 Process-wide failure tally}

    CLI front-ends render experiments through [Exp_registry] and only
    get strings back; {!run} also records failing outcomes here so
    [pcc_sim] and the bench can report them without threading reports
    through every render signature. *)

val failures : unit -> outcome list
(** All failing outcomes recorded by {!run} since the last
    {!reset_failures}, oldest first. Thread-safe. *)

val failure_summary : unit -> string option
(** The tally ({!failures}) as one line, ["N task(s) failed: a (timed_out),
    b (crashed)"], or [None] when it is empty. *)

val reset_failures : unit -> unit
