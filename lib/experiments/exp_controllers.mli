(** Controller family head-to-head: Allegro vs Vivace vs Proteus vs
    CUBIC on a shared workload menu, plus the scavenger-vs-primary
    sharing scenario that defines Proteus.

    The workload menu covers the registry's recurring axes at one
    setting each — clean link, 1% and 3% random loss, a shallow buffer,
    an 8-way incast and sharing with CUBIC — so one table answers
    "which controller should this flow use". The second table runs a
    long-lived background flow against a Proteus primary active only in
    the middle third of the run: a Proteus scavenger must collapse while
    the primary is present and reclaim the bandwidth afterwards, while a
    Vivace background flow keeps competing throughout. *)

type row = {
  workload : string;
  tputs : (string * float) list;  (** controller name -> goodput, bits/s *)
}

type phase_row = {
  prot : string;
  before_ : float;  (** Goodput before the primary arrives, bits/s. *)
  during : float;  (** While the primary holds the bottleneck. *)
  after : float;  (** After the primary departs. *)
}

val controllers : unit -> (string * Pcc_scenario.Transport.spec) list
(** The four columns: [allegro], [vivace], [proteus] (hybrid class) and
    [cubic], in table order. *)

val run :
  ?pool:Runner.t ->
  ?scale:float ->
  ?seed:int ->
  unit ->
  row list * phase_row list
(** Head-to-head matrix (one row per workload) and the
    scavenger/primary phase table. Durations scale with [scale] but are
    floored so tiny scales still measure steady state. *)

val table : row list -> Exp_common.table
val phase_table : phase_row list -> Exp_common.table
