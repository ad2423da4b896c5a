open Pcc_sim

(* Float-only, so OCaml stores it unboxed: the per-packet write is a
   plain store, with no box and no write barrier. *)
type clock = { mutable busy_time : float }

type t = {
  engine : Engine.t;
  name : string;
  trace_id : int;
  rng : Rng.t;
  mutable bandwidth : float;
  mutable delay : float;
  mutable loss : float;
  mutable jitter : float;
  mutable dup_prob : float;
  mutable reorder_prob : float;
  mutable reorder_extra : float;
  q : Queue_disc.t;
  mutable receiver : Packet.t -> unit;
  (* The two per-packet events (transmit complete, propagation
     complete) post one of these per-link actions with the packet as
     its argument, so a packet hop allocates no closure or handle. *)
  arrive : Packet.t -> unit;
  tx_done : Packet.t -> unit;
  mutable busy : bool;
  mutable offered_pkts : int;
  mutable propagating : int;
  mutable delivered_pkts : int;
  mutable delivered_bytes : int;
  mutable channel_losses : int;
  mutable duplicated_pkts : int;
  mutable duplicated_bytes : int;
  mutable reordered_pkts : int;
  clock : clock;
}

let on_arrive t (p : Packet.t) =
  t.propagating <- t.propagating - 1;
  t.delivered_pkts <- t.delivered_pkts + 1;
  t.delivered_bytes <- t.delivered_bytes + p.Packet.size;
  t.receiver p

let deliver_after t (p : Packet.t) ~extra =
  t.propagating <- t.propagating + 1;
  Engine.post_apply_in t.engine ~after:(t.delay +. extra) t.arrive p

let propagate t (p : Packet.t) =
  if Rng.bernoulli t.rng t.loss then t.channel_losses <- t.channel_losses + 1
  else begin
    let jit = if t.jitter > 0. then Rng.uniform t.rng 0. t.jitter else 0. in
    let reordered =
      t.reorder_prob > 0. && Rng.bernoulli t.rng t.reorder_prob
    in
    if reordered then t.reordered_pkts <- t.reordered_pkts + 1;
    let extra = if reordered then jit +. t.reorder_extra else jit in
    deliver_after t p ~extra;
    if t.dup_prob > 0. && Rng.bernoulli t.rng t.dup_prob then begin
      t.duplicated_pkts <- t.duplicated_pkts + 1;
      t.duplicated_bytes <- t.duplicated_bytes + p.Packet.size;
      deliver_after t p ~extra:jit
    end
  end

let rec start_transmission t =
  let now = Engine.now t.engine in
  match t.q.Queue_disc.dequeue ~now with
  | None -> t.busy <- false
  | Some p ->
    t.busy <- true;
    (* [Units.transmission_time] spelled out ([bandwidth] is positive):
       a call across modules would box its result on every packet. *)
    let tx = float_of_int p.Packet.size *. 8. /. t.bandwidth in
    t.clock.busy_time <- t.clock.busy_time +. tx;
    Engine.post_apply_in t.engine ~after:tx t.tx_done p

and on_tx_done t p =
  propagate t p;
  start_transmission t

let create engine ?(name = "link") ?(loss = 0.) ?(jitter = 0.) ~rng ~bandwidth
    ~delay ~queue () =
  if bandwidth <= 0. then invalid_arg "Link.create: bandwidth must be positive";
  if delay < 0. then invalid_arg "Link.create: delay must be non-negative";
  let trace_id = Pcc_trace.Collector.fresh_link_id () in
  Pcc_trace.Collector.register Pcc_trace.Event.Link_scope ~id:trace_id name;
  let rec t = {
    engine;
    name;
    trace_id;
    rng;
    bandwidth;
    delay;
    loss;
    jitter;
    dup_prob = 0.;
    reorder_prob = 0.;
    reorder_extra = 0.;
    q = queue;
    receiver =
      (fun _ -> failwith (name ^ ": no receiver attached"));
    arrive = (fun p -> on_arrive t p);
    tx_done = (fun p -> on_tx_done t p);
    busy = false;
    offered_pkts = 0;
    propagating = 0;
    delivered_pkts = 0;
    delivered_bytes = 0;
    channel_losses = 0;
    duplicated_pkts = 0;
    duplicated_bytes = 0;
    reordered_pkts = 0;
    clock = { busy_time = 0. };
  }
  in
  t

let set_receiver t f = t.receiver <- f

let send t p =
  t.offered_pkts <- t.offered_pkts + 1;
  let now = Engine.now t.engine in
  let accepted = t.q.Queue_disc.enqueue ~now p in
  if Pcc_trace.Collector.enabled () then
    Pcc_trace.Collector.emit
      (if accepted then Pcc_trace.Event.Enqueue else Pcc_trace.Event.Drop)
      ~time:now ~id:t.trace_id
      ~a:(float_of_int (t.q.Queue_disc.len_bytes ()))
      ~b:0. ~i:p.Packet.flow;
  if accepted && not t.busy then start_transmission t

let set_bandwidth t bw =
  if bw <= 0. then invalid_arg "Link.set_bandwidth: must be positive";
  t.bandwidth <- bw

let set_delay t d =
  if d < 0. then invalid_arg "Link.set_delay: must be non-negative";
  t.delay <- d

let set_loss t l = t.loss <- Float.max 0. (Float.min 1. l)

let set_jitter t j =
  if j < 0. then invalid_arg "Link.set_jitter: must be non-negative";
  t.jitter <- j

let set_duplication t p = t.dup_prob <- Float.max 0. (Float.min 1. p)

let set_reordering t ~prob ~extra =
  if extra < 0. then invalid_arg "Link.set_reordering: extra must be non-negative";
  t.reorder_prob <- Float.max 0. (Float.min 1. prob);
  t.reorder_extra <- extra

let bandwidth t = t.bandwidth
let delay t = t.delay
let loss t = t.loss
let jitter t = t.jitter
let queue t = t.q
let offered_pkts t = t.offered_pkts
let in_flight_pkts t = (if t.busy then 1 else 0) + t.propagating
let delivered_pkts t = t.delivered_pkts
let delivered_bytes t = t.delivered_bytes
let channel_losses t = t.channel_losses
let duplicated_pkts t = t.duplicated_pkts
let duplicated_bytes t = t.duplicated_bytes
let reordered_pkts t = t.reordered_pkts
let busy_time t = t.clock.busy_time
let name t = t.name
let trace_id t = t.trace_id
