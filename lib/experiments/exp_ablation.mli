(** Ablations of this implementation's noise-handling design choices
    (DESIGN.md §4).

    Two knobs distinguish our PCC from a literal reading of the paper's
    formulas, both responses to §2.1's noisy-measurement problem:
    (a) the sigmoid's loss argument uses a one-standard-error lower
    confidence bound instead of the raw per-MI loss estimate, and (b) the
    rate-adjusting ladder reverts only after two consecutive utility
    falls. This experiment quantifies (a), plus the effect of the
    monitor-interval minimum packet count, on a lossy link where
    small-sample noise matters most. *)

type row = {
  label : string;
  loss : float;
  throughput : float;  (** bits/s over the measurement window *)
}

val run : ?pool:Runner.t -> ?scale:float -> ?seed:int -> unit -> row list
val table : row list -> Exp_common.table
