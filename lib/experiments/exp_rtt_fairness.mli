(** Figure 8 — RTT unfairness.

    A 10 ms-RTT flow and a longer-RTT flow (20–100 ms) share a 100 Mbps
    bottleneck whose buffer equals the short flow's BDP. The long flow
    starts first (5 s head start per the paper), then both run and the
    ratio long/short of average throughput is reported. Shape: PCC near
    1 at every RTT (convergence is driven by utility, not by the control
    loop's cycle length); New Reno collapses with RTT; CUBIC in
    between. *)

type row = {
  long_rtt : float;  (** seconds *)
  pcc : float;  (** ratio long/short *)
  cubic : float;
  newreno : float;
}

val run :
  ?pool:Runner.t ->
  ?scale:float ->
  ?seed:int ->
  ?rtts:float list ->
  unit ->
  row list
(** Base measurement 500 s per point (paper), scaled. *)

val table : row list -> Exp_common.table
