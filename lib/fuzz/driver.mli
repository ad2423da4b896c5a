(** The fuzz loop: generate, test, shrink, bank.

    Each run derives its own seed from the master seed
    ({!Pcc_experiments.Runner.derive_seed}), draws a scenario with
    {!Pcc_scenario.Scenario.generate} and runs the {!Oracle} suite. A
    failure is minimized by {!Shrink.minimize} (under the same oracle)
    and written to the corpus directory as a {!Corpus} repro whose
    header carries the exact replay command.

    Everything — generation, oracle order, shrinking, log lines — is a
    pure function of [(seed, runs)] plus the synthetic hook, so two
    invocations with the same arguments produce byte-identical output;
    that is the CI determinism gate. *)

type failure_report = {
  run : int;  (** Run index within the campaign. *)
  failure : Oracle.failure;
  shrunk : Pcc_scenario.Scenario.t;
  shrink_checks : int;  (** Oracle invocations the minimizer spent. *)
  repro_path : string option;  (** Where the repro was banked, if a
                                   corpus directory was given. *)
}

type summary = { runs : int; failed : failure_report list }

val fuzz :
  ?synth:(Pcc_scenario.Scenario.t -> string option) ->
  ?deep_every:int ->
  ?shrink_budget:int ->
  ?corpus_dir:string ->
  ?menu:string list ->
  ?log:(string -> unit) ->
  runs:int ->
  seed:int ->
  unit ->
  summary
(** Run a campaign. [menu] restricts generated flows to a subset of
    {!Pcc_scenario.Transport.all_names} (the nightly controllers axis
    fuzzes just the PCC family); default is the full menu.
    [deep_every] (default 8) enables the expensive
    supervisor/checkpoint differentials on every Nth run (0 disables
    them); shrinking a deep-oracle failure re-enables them for the
    minimizer's checks. [log] (default silent) receives one line per
    failure and a closing summary line. *)

val replay :
  ?synth:(Pcc_scenario.Scenario.t -> string option) ->
  string ->
  (unit, Oracle.failure) result
(** Replay one repro file under the full oracle suite (deep checks
    included). [Ok ()] means every oracle now passes — the state a
    committed, fixed regression should be in. *)

val replay_dir :
  ?synth:(Pcc_scenario.Scenario.t -> string option) ->
  ?log:(string -> unit) ->
  string ->
  (string * Oracle.failure) list
(** Replay every repro in a corpus directory; returns the files that
    still fail. An empty list is a green corpus. *)

val synth_of_env : unit -> (Pcc_scenario.Scenario.t -> string option) option
(** The CI fault-injection hook: parse [PCC_FUZZ_SYNTH] into a
    predicate. Specs: ["always"], or [<field><op><n>] with field one of
    [flows]/[links]/[faults]/[cross], op one of [>=]/[<=]/[=] — e.g.
    ["flows>=2"]. The predicate depends only on the scenario value, so
    a shrunken repro still fails under the same spec and replays green
    once the variable is unset.
    @raise Invalid_argument on a malformed spec. *)
