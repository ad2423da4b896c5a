(** Figure 14 — TCP friendliness versus the common selfish practice.

    One normal TCP (New Reno) flow shares a link with N "selfish units",
    where a unit is either one PCC flow or a bundle of 10 parallel TCP
    flows (what download accelerators do). The relative unfriendliness
    ratio is (normal TCP's throughput against TCP-selfish) divided by
    (against PCC): above 1 means PCC is the gentler neighbour. Shape:
    ratio ≥ 1 for most configurations, growing with N. *)

type row = {
  bandwidth : float;
  rtt : float;
  selfish : int;  (** number of selfish units *)
  tcp_vs_pcc : float;  (** normal TCP throughput vs N PCC flows *)
  tcp_vs_bundle : float;  (** vs N bundles of 10 parallel TCPs *)
  unfriendliness : float;  (** tcp_vs_pcc / tcp_vs_bundle... inverted:
      ratio > 1 means PCC friendlier (paper's "relative unfriendliness"). *)
}

val run :
  ?pool:Runner.t ->
  ?scale:float ->
  ?seed:int ->
  ?selfish_counts:int list ->
  unit ->
  row list
(** Configurations: (10 Mbps, 10 ms), (30 Mbps, 20 ms), (30 Mbps, 10 ms),
    (100 Mbps, 10 ms); 100 s · scale each. *)

val table : row list -> Exp_common.table
