(** Figure 15 — flow completion time for short flows.

    100 KB flows arrive as a Poisson process on a 15 Mbps, 60 ms link;
    the offered load is swept from 5 % to 75 %. Shape: PCC's median and
    95th-percentile FCT track TCP's (within tens of percent at high
    load) — the learning architecture does not fundamentally hurt short
    flows, because its startup doubles like slow start. *)

type row = {
  load : float;  (** offered load fraction *)
  protocol : string;
  median : float;  (** seconds *)
  mean : float;
  p95 : float;
  completed : int;
}

val run :
  ?pool:Runner.t ->
  ?scale:float ->
  ?seed:int ->
  ?loads:float list ->
  unit ->
  row list
(** Arrival horizon 120 s · scale per point. *)

val table : row list -> Exp_common.table
