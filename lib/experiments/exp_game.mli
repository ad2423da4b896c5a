(** Theorems 1 and 2 — the §2.2 game, checked numerically.

    Runs the synchronous best-direction dynamics from asymmetric initial
    rates for several sender counts and verifies: convergence, fairness
    of the final state (Jain index ≈ 1), total traffic inside Theorem 1's
    (C, 20C/19) band, and agreement with the independently bisected
    symmetric equilibrium. Also contrasts the equilibrium loss rate of
    the [safe] utility with the naive [T − x·L] utility — the motivation
    for the sigmoid cut-off. *)

type row = {
  n : int;
  steps : int;  (** First step from which all senders stay inside
      Theorem 2's band (x̂(1−ε)², x̂(1+ε)²) (with 5% slack). *)
  jain : float;
  total_over_c : float;  (** Σx / C at the final state *)
  predicted_rate : float;  (** bisected symmetric equilibrium x̂ *)
  mean_rate : float;  (** mean of the dynamics' final state *)
  loss_safe : float;  (** equilibrium loss rate, safe utility *)
  loss_naive : float;  (** equilibrium loss rate, T − x·L utility *)
}

val run : ?pool:Runner.t -> ?seed:int -> ?ns:int list -> unit -> row list
(** One dynamics run per sender count. Initial rates for every n are
    drawn up front from a sequential RNG, so they are a pure function of
    [seed] and [ns]. *)

val table : row list -> Exp_common.table
