(** Figure 17 — power (throughput/delay) under FQ, with and without
    CoDel, for TCP versus PCC with the latency utility.

    Two long-running interactive flows share a 40 Mbps, 20 ms link
    behind per-flow fair queuing whose sub-queues are either deep FIFOs
    ("bufferbloat") or CoDel. Shapes: for TCP, CoDel is essential
    (~10× power gap against bufferbloat); for PCC with the latency
    utility the two AQMs are nearly identical — PCC keeps the queue
    empty on its own — and PCC's power beats TCP+CoDel. *)

type row = {
  combo : string;
  throughput : float;  (** mean per-flow goodput, bits/s *)
  rtt : float;  (** mean smoothed RTT, seconds *)
  power : float;  (** throughput / rtt *)
}

val run : ?pool:Runner.t -> ?scale:float -> ?seed:int -> unit -> row list
(** Base duration 60 s · scale per combination. *)

val table : row list -> Exp_common.table
