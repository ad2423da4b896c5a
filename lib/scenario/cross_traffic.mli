(** Unresponsive background traffic for the synthetic Internet model:
    on/off constant-bit-rate bursts sharing the bottleneck queue. The
    resulting queue occupancy and loss noise is what makes the public
    Internet hostile to hardwired mappings. *)

type t

val onoff :
  Pcc_sim.Engine.t ->
  rng:Pcc_sim.Rng.t ->
  sink:(Pcc_net.Packet.t -> unit) ->
  rate:float ->
  on_mean:float ->
  off_mean:float ->
  unit ->
  t
(** [onoff engine ~rng ~sink ~rate ~on_mean ~off_mean ()] alternates
    exponentially-distributed ON periods (sending MSS packets at [rate]
    bits/s into [sink]) and OFF periods. Starts immediately. *)

val stop : t -> unit
val sent_pkts : t -> int
