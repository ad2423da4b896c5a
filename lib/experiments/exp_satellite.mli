(** Figure 6 — emulated satellite links (WINDS parameters).

    42 Mbps, 800 ms RTT, 0.74 % random loss; bottleneck buffer swept from
    1.5 KB to 1 MB. The paper's shape: PCC reaches ~90 % of capacity even
    with a few-packet buffer and is flat in buffer size; Hybla (the
    deployed satellite TCP) manages only a few Mbps even at 1 MB (17×
    below PCC); Illinois and CUBIC are worse still. *)

type row = {
  buffer : int;  (** bytes *)
  pcc : float;
  hybla : float;
  illinois : float;
  cubic : float;
  newreno : float;
}

val run :
  ?pool:Runner.t ->
  ?scale:float ->
  ?seed:int ->
  ?buffers:int list ->
  unit ->
  row list
(** Base duration 100 s per point. *)

val table : row list -> Exp_common.table
