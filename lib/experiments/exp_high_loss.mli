(** §4.4.2 — enduring excessive loss with the loss-resilient utility.

    Behind fair queuing a flow may optimize [T·(1−L)], which keeps its
    optimum at the fair-share rate regardless of random loss. 100 Mbps,
    30 ms, forward loss 10–50 %. Shape: PCC with the loss-resilient
    utility delivers ≈ the achievable capacity ((1−L)·C); CUBIC is
    orders of magnitude below. *)

type row = {
  loss : float;
  achievable : float;  (** (1−loss)·capacity, bits/s *)
  pcc_resilient : float;
  pcc_safe : float;  (** the default utility, for contrast (its 5% cap) *)
  cubic : float;
}

val run :
  ?pool:Runner.t ->
  ?scale:float ->
  ?seed:int ->
  ?losses:float list ->
  unit ->
  row list

val table : row list -> Exp_common.table
