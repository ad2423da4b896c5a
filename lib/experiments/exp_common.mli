(** Shared plumbing for the paper-reproduction experiments.

    Every experiment module follows the same convention: a [run] function
    parameterized by a [scale] (multiplying the paper's measurement
    durations, so tests can run cheap versions) and a [seed], returning
    typed rows, plus a [table] that shapes them like the paper's figure.
    {!Exp_registry} pairs the two for each experiment. *)

type table = {
  title : string;
  header : string list;
  rows : string list list;
  note : string option;
}

val render_table : table -> string
(** Render with aligned columns, exactly as {!print_table} prints it —
    used to compare parallel and sequential runs byte-for-byte. *)

val print_table : table -> unit
(** [print_string (render_table t)], flushed. *)

(** {2 Task plumbing}

    Inside its [run], every experiment module builds a list of tasks (a
    pure, cheap description of its independent simulation runs — all
    randomness derived from the seed at construction time) and folds
    their results, {e in task order}, back into rows. {!run_tasks} and
    {!run_tasks_opt} execute a task list on a {!Runner} executor; by the
    Runner's determinism contract the results do not depend on its job
    count. *)

module Task : sig
  type 'a t = 'a Runner.task = {
    label : string;
    seed : int option;
    repro : string option;
    run : unit -> 'a;
  }
end

type 'a task = 'a Task.t
(** One independent simulation run. The [label] identifies it in logs
    and forensics; [seed]/[repro] feed crash bundles. (The record lives
    in {!Task} so its fields don't shadow experiment row fields under
    local opens of this module; it is equal to {!Runner.task}.) *)

val task : ?label:string -> ?seed:int -> ?repro:string -> (unit -> 'a) -> 'a task
val task_label : 'a task -> string

val run_tasks : ?pool:Runner.t -> 'a task list -> 'a list
(** Execute the tasks and return their results in task order. With no
    [pool], a plain [List.map] in the calling domain; with one,
    {!Runner.map_list}. Strict: the lowest-indexed task exception
    propagates. *)

val run_tasks_opt : ?pool:Runner.t -> 'a task list -> 'a option list
(** Like {!run_tasks}, but positional-with-holes: tasks run under
    {!Runner.run} with the [pool]'s settings (default: one worker, no
    limits), a failing task yields [None] in its slot (its outcome lands
    in the process-wide tally, {!Runner.failures}) and the rest of the
    sweep completes. *)

val value_or_nan : float option -> float
(** [None] becomes [nan] — pair with the NaN-aware formatters below so a
    failed measurement renders as ["n/a"]. *)

val present : 'a option list -> 'a list
(** Drop the holes, keeping order. *)

val chunk : int -> 'a list -> 'a list list
(** [chunk n l] splits [l] into consecutive groups of [n] (last group
    may be shorter). @raise Invalid_argument if [n <= 0]. *)

val group_by : ('a -> 'k) -> 'a list -> ('k * 'a list) list
(** Group consecutive-or-not elements by key, preserving first-seen key
    order and within-group element order. *)

val f1 : float -> string
(** Format with 1 decimal; NaN (a measurement missing under supervised
    execution) renders as ["n/a"], as in all formatters here. *)

val f2 : float -> string
val f3 : float -> string

val mbps : float -> string
(** Format a bits/s value as Mbps with 2 decimals. *)

val ratio : float -> float -> float
(** [ratio a b] is [a/b], guarding division by ~0 (returns [inf]) and
    propagating NaN from either operand. *)

val solo_throughput :
  ?seed:int ->
  ?warmup:float ->
  ?queue:Pcc_scenario.Topology.queue_kind ->
  ?loss:float ->
  ?rev_loss:float ->
  ?jitter:float ->
  bandwidth:float ->
  rtt:float ->
  buffer:int ->
  duration:float ->
  Pcc_scenario.Transport.spec ->
  float
(** Average goodput (bits/s) of a single flow over [duration] after
    [warmup] (default [max 3. (20·rtt)]) on a fresh single-bottleneck
    {!Pcc_scenario.Topology.dumbbell}. *)

val goodput_between :
  Pcc_sim.Engine.t ->
  Pcc_scenario.Topology.built_flow ->
  t0:float ->
  t1:float ->
  float
(** Run the engine to [t0], snapshot, run to [t1], return the average
    goodput in bits/s. The engine must not already be past [t0]. *)
