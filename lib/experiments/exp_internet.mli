(** Figures 4–5 — the large-scale commercial-Internet experiment.

    The paper ran 510 PlanetLab/GENI sender–receiver pairs, measuring each
    protocol solo (iperf TCP for 100 s, then PCC for 100 s). We draw
    random paths from {!Pcc_scenario.Internet_model} and do the same:
    every protocol faces the identical path (same seed, so the same loss
    pattern and cross-traffic). Reported like Fig. 5: the distribution of
    PCC's throughput-improvement ratio over each baseline. *)

type pair_result = {
  params : Pcc_scenario.Internet_model.params;
  pcc : float;
  cubic : float;
  sabul : float;
  pcp : float;
}

type summary = {
  baseline : string;
  median_ratio : float;
  p25 : float;
  p75 : float;
  p90 : float;
  frac_ge_10x : float;  (** Fraction of pairs with PCC ≥ 10× baseline. *)
}

val run :
  ?pool:Runner.t ->
  ?scale:float ->
  ?seed:int ->
  ?pairs:int ->
  unit ->
  pair_result list
(** [pairs] defaults to 40; per-protocol run is 60 s · [scale]. All
    paths are drawn up front from a sequential RNG, so the path set — and
    every per-pair run seed — is a pure function of [seed] and [pairs]. *)

val summarize : pair_result list -> summary list
val table : pair_result list -> Exp_common.table
