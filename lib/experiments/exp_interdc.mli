(** Table 1 — inter-data-center paths over reserved bandwidth.

    The paper's nine GENI site pairs with 800 Mbps reserved end-to-end
    bandwidth. The reservation is enforced by a rate limiter with a small
    buffer — the paper's explanation for TCP's poor showing — which we
    model as an 800 Mbps bottleneck with a 64 packet buffer and a trace
    of mild residual loss. Shape: PCC ≈ 800 Mbps everywhere, SABUL
    somewhat below, Illinois and CUBIC far below and RTT-dependent. *)

type row = {
  name : string;
  rtt : float;  (** seconds *)
  pcc : float;
  sabul : float;
  cubic : float;
  illinois : float;
}

val pairs : (string * float) list
(** The paper's transmission pairs with their RTTs (ms converted to s). *)

val run : ?pool:Runner.t -> ?scale:float -> ?seed:int -> unit -> row list
(** Base duration 100 s per pair and protocol. *)

val table : row list -> Exp_common.table
