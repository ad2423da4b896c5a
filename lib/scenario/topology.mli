(** General directed-graph topology layer.

    The paper's §1 argument is that real networks vary along dimensions —
    number of bottlenecks, reverse-path congestion, heterogeneous per-hop
    buffers and AQMs — that break hardwired assumptions. This module makes
    those dimensions first-class: a topology is a directed graph of
    {!link_spec} edges between integer nodes, and each flow names its
    forward route (and optionally an explicit reverse route, so a
    congested or lossy ack path is expressible) as a list of nodes.

    Every flow shares one lifecycle implementation here — start/stop
    scheduling, sized transfers with flow-completion-time recording,
    goodput accounting, cross-traffic attachment, and the dynamic knobs
    ({!set_link_bandwidth}, {!set_link_delay}, {!set_link_loss},
    {!set_rev_loss}, {!set_base_rtt}) that the fault-injection and
    dynamic-network layers drive. {!dumbbell} builds the single-bottleneck
    shape of every testbed in the paper's evaluation; a parking-lot chain
    is a {!build} whose link [i] runs [i -> i+1].

    {b Determinism.} [build] derives every random stream by splitting the
    supplied RNG in a fixed order: one split per link in list order, then
    per flow (in list order) one split for the ideal reverse line if the
    flow is reverse-loss-capable, then one split for the transport. Seeded
    simulations reproduce bit-for-bit as long as this order holds. *)

type queue_kind =
  | Droptail  (** FIFO, byte capacity = the link's [buffer]. *)
  | Droptail_pkts of int  (** FIFO limited to a packet count. *)
  | Codel  (** CoDel over a [buffer]-byte FIFO. *)
  | Red
  | Infinite  (** Unbounded FIFO — "bufferbloat". *)
  | Fq of queue_kind
      (** DRR fair queuing with the given per-flow inner discipline, each
          with [buffer] bytes. *)

type node = int
(** Nodes are consecutive integers [0 .. num_nodes - 1]. *)

type link_id = int
(** Index into the topology's link array, in [links] list order. *)

type link_spec = {
  src : node;
  dst : node;
  bandwidth : float;  (** bits/s *)
  delay : float;  (** one-way propagation, s *)
  buffer : int;  (** bytes *)
  queue : queue_kind;
  loss : float;  (** Bernoulli channel loss *)
  jitter : float;  (** uniform extra propagation delay bound, s *)
  name : string option;  (** diagnostics label; default ["link<i>"] *)
}

val link :
  ?name:string ->
  ?delay:float ->
  ?buffer:int ->
  ?queue:queue_kind ->
  ?loss:float ->
  ?jitter:float ->
  src:node ->
  dst:node ->
  bandwidth:float ->
  unit ->
  link_spec
(** Defaults: 5 ms delay, one-BDP buffer at 30 ms, droptail, no loss, no
    jitter. *)

type flow_def = {
  transport : Transport.spec;
  route : node list;  (** Forward data route; at least two nodes, every
                          consecutive pair joined by a link. *)
  rev_route : node list option;
      (** Explicit ack route from the route's last node back to its
          first, every consecutive pair joined by a link — acks then
          compete for those links' bandwidth and buffers. [None] (the
          default) gives an ideal reverse delay line of matching
          propagation delay. *)
  rev_lossy : bool;
      (** Whether the ideal reverse line carries an RNG so ack-path loss
          ({!set_rev_loss}, reverse-path faults) can be applied to it.
          Ignored when [rev_route] is given. *)
  start_at : float;
  stop_at : float option;
  size : int option;  (** Transfer bytes; [None] = long-running. *)
  extra_rtt : float;  (** Extra per-flow propagation, split between an
                          access delay line before the first link and the
                          reverse direction. *)
  label : string;
}

val flow :
  ?start_at:float ->
  ?stop_at:float ->
  ?size:int ->
  ?extra_rtt:float ->
  ?rev_route:node list ->
  ?rev_lossy:bool ->
  ?label:string ->
  route:node list ->
  Transport.spec ->
  flow_def
(** [rev_lossy] defaults to [true]. *)

type built_flow = {
  def : flow_def;
  sender : Pcc_net.Sender.t;
  receiver : Pcc_net.Receiver.t;
  mutable fct : float option;  (** Completion duration, for sized flows. *)
}

type t

val build :
  Pcc_sim.Engine.t ->
  rng:Pcc_sim.Rng.t ->
  ?nodes:int ->
  links:link_spec list ->
  ?rev_loss:float ->
  flows:flow_def list ->
  unit ->
  t
(** [build engine ~rng ~links ~flows ()] wires the graph and schedules
    every flow's start/stop. [nodes] defaults to one past the highest
    node any link names. [rev_loss] is the initial Bernoulli loss of
    every reverse-loss-capable ideal reverse line.

    All inputs are validated here, before the RNG is split.
    @raise Invalid_argument if [links] is empty; if a link has a negative
    endpoint, is a self-loop, duplicates another link's [(src, dst)]
    edge, or has non-positive bandwidth/buffer, negative delay/jitter or
    loss outside [0, 1]; if [rev_loss] is outside [0, 1]; or if a flow
    has a non-finite [start_at] or [stop_at], [start_at < 0],
    [stop_at <= start_at], [size <= 0],
    [extra_rtt < 0], a route with fewer than two nodes, a route step
    with no link, a node outside the graph, or a reverse route that does
    not run from the forward route's last node back to its first. *)

val dumbbell :
  Pcc_sim.Engine.t ->
  rng:Pcc_sim.Rng.t ->
  bandwidth:float ->
  rtt:float ->
  buffer:int ->
  ?queue:queue_kind ->
  ?loss:float ->
  ?rev_loss:float ->
  ?jitter:float ->
  flows:flow_def list ->
  unit ->
  t
(** The single-bottleneck testbed of the paper's evaluation: {!build}
    with one link named ["bottleneck"] from node 0 to node 1, with delay
    [rtt /. 2] and [queue] (default droptail) over [buffer] bytes,
    forward Bernoulli [loss] and uniform [jitter]. Flows should route
    [[0; 1]]. With the default ideal, lossy-capable reverse line, a flow's
    acks return after [rtt /. 2 +. extra_rtt /. 2]; [rev_loss] is that
    line's initial loss.
    @raise Invalid_argument as {!build} does. *)

(** {1 Accessors} *)

val engine : t -> Pcc_sim.Engine.t
val flows : t -> built_flow array
val num_nodes : t -> int
val num_links : t -> int

val links : t -> Pcc_net.Link.t array
(** A fresh array of every link, in {!link_id} order. *)

val link_at : t -> link_id -> Pcc_net.Link.t
(** @raise Invalid_argument if the id is out of range. *)

val link_name : t -> link_id -> string

val link_between : t -> node -> node -> link_id option
(** The directed edge from one node to another, if present. *)

val route_links : t -> flow:int -> link_id list
(** The links a flow's forward route traverses, in order. *)

val goodput_bytes : built_flow -> int
(** Distinct payload bytes the flow's receiver has accepted so far. *)

val describe : t -> string
(** Multi-line human-readable summary: nodes, links with their
    parameters, flows with their routes — what [pcc_sim topo --describe]
    prints. *)

(** {1 Dynamic knobs}

    These are what {!Fault}, {!Dynamics} and the invariant checker
    drive. All raise [Invalid_argument] on an out-of-range link id. *)

val set_link_bandwidth : t -> link_id -> float -> unit
val set_link_delay : t -> link_id -> float -> unit
val set_link_loss : t -> link_id -> float -> unit

val rev_loss : t -> float
(** Current ack-path Bernoulli loss of the ideal reverse lines. *)

val set_rev_loss : t -> float -> unit
(** Set the loss probability (clamped to [\[0, 1\]]) on every
    reverse-loss-capable ideal reverse line. Flows with explicit reverse
    routes are unaffected — impair their links directly instead. *)

val set_rev_delay : t -> flow:int -> float -> unit
(** Retarget one flow's ideal reverse line delay.
    @raise Invalid_argument if the flow is out of range or routes its
    acks over explicit links. *)

val set_base_rtt : t -> ?link:link_id -> float -> unit
(** [set_base_rtt t ~link rtt] retargets a base RTT carried by one link
    (default 0): the link's delay becomes [rtt /. 2] and every flow's
    ideal reverse line is retargeted to [rtt /. 2 +. extra_rtt /. 2] —
    the rapidly-changing-network knob on a dumbbell. *)

(** {1 Cross traffic} *)

val send_link : t -> link_id -> Pcc_net.Packet.t -> unit
(** Push a packet straight into a link's queue (cross traffic). *)

val deliver_at : t -> node:node -> flow:int -> (Pcc_net.Packet.t -> unit) -> unit
(** Register a delivery handler for an extra (cross-traffic) data flow id
    at a node; data packets of unknown flows are silently dropped. *)
