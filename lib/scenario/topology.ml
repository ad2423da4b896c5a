open Pcc_sim
open Pcc_net

type queue_kind =
  | Droptail
  | Droptail_pkts of int
  | Codel
  | Red
  | Infinite
  | Fq of queue_kind

type node = int
type link_id = int

type link_spec = {
  src : node;
  dst : node;
  bandwidth : float;
  delay : float;
  buffer : int;
  queue : queue_kind;
  loss : float;
  jitter : float;
  name : string option;
}

let link ?name ?(delay = 0.005) ?buffer ?(queue = Droptail) ?(loss = 0.)
    ?(jitter = 0.) ~src ~dst ~bandwidth () =
  let buffer =
    match buffer with
    | Some b -> b
    | None -> Units.bdp_bytes ~rate:bandwidth ~rtt:0.03
  in
  { src; dst; bandwidth; delay; buffer; queue; loss; jitter; name }

type flow_def = {
  transport : Transport.spec;
  route : node list;
  rev_route : node list option;
  rev_lossy : bool;
  start_at : float;
  stop_at : float option;
  size : int option;
  extra_rtt : float;
  label : string;
}

let flow ?(start_at = 0.) ?stop_at ?size ?(extra_rtt = 0.) ?rev_route
    ?(rev_lossy = true) ?label ~route transport =
  let label =
    match label with Some l -> l | None -> Transport.name transport
  in
  {
    transport;
    route;
    rev_route;
    rev_lossy;
    start_at;
    stop_at;
    size;
    extra_rtt;
    label;
  }

type built_flow = {
  def : flow_def;
  sender : Sender.t;
  receiver : Receiver.t;
  mutable fct : float option;
}

(* How a flow's acks travel back: an ideal delay line (possibly carrying an
   RNG so reverse loss can be applied), or over real topology links. *)
type reverse = { line : Delay_line.t option; lossy : bool }

type t = {
  engine : Engine.t;
  num_nodes : int;
  links : Link.t array;
  specs : link_spec array;
  names : string array;
  edges : (node * node, link_id) Hashtbl.t;
  built : built_flow array;
  routes : link_id array array;  (* forward link ids, per flow *)
  revs : reverse array;
  fwd_tables : (int, Packet.t -> unit) Hashtbl.t array;  (* data, per node *)
  rev_tables : (int, Packet.t -> unit) Hashtbl.t array;  (* acks, per node *)
  hooks : (float -> unit) list ref array;
  mutable rev_loss : float;
}

let rec make_queue kind ~capacity =
  match kind with
  | Droptail -> Queue_disc.droptail_bytes ~capacity ()
  | Droptail_pkts n -> Queue_disc.droptail_pkts ~capacity:n ()
  | Codel -> Queue_disc.codel ~capacity ()
  | Red -> Queue_disc.red ~capacity ()
  | Infinite -> Queue_disc.infinite ()
  | Fq inner ->
    Queue_disc.fq ~per_flow:(fun () -> make_queue inner ~capacity) ()

let fail fmt = Printf.ksprintf invalid_arg fmt

(* ------------------------------------------------------------------ *)
(* Validation — the single checkpoint the Path/Multihop wrappers rely
   on. Runs before any RNG split or component creation so a rejected
   build leaves the caller's RNG stream untouched. *)

let validate_links ~num_nodes specs =
  if specs = [] then fail "Topology.build: need at least one link";
  let edges = Hashtbl.create 16 in
  List.iteri
    (fun i (s : link_spec) ->
      let who =
        match s.name with Some n -> n | None -> Printf.sprintf "link%d" i
      in
      if s.src < 0 || s.dst < 0 then
        fail "Topology.build: %s has a negative endpoint (%d -> %d)" who s.src
          s.dst;
      if s.src >= num_nodes || s.dst >= num_nodes then
        fail "Topology.build: %s endpoint outside the %d-node graph" who
          num_nodes;
      if s.src = s.dst then
        fail "Topology.build: %s is a self-loop at node %d" who s.src;
      if Hashtbl.mem edges (s.src, s.dst) then
        fail "Topology.build: duplicate link %d -> %d (%s)" s.src s.dst who;
      if s.bandwidth <= 0. then
        fail "Topology.build: %s bandwidth must be positive" who;
      if s.delay < 0. then fail "Topology.build: %s delay is negative" who;
      (match s.queue with
      | Infinite -> ()
      | _ ->
        if s.buffer <= 0 then
          fail "Topology.build: %s buffer must be positive" who);
      if s.loss < 0. || s.loss > 1. then
        fail "Topology.build: %s loss %g outside [0,1]" who s.loss;
      if s.jitter < 0. then fail "Topology.build: %s jitter is negative" who;
      Hashtbl.replace edges (s.src, s.dst) i)
    specs;
  edges

let validate_route ~num_nodes ~edges ~what ~label route =
  (match route with
  | [] | [ _ ] ->
    fail "Topology.build: flow %s %s needs at least two nodes" label what
  | _ -> ());
  let seen = Hashtbl.create 8 in
  List.iter
    (fun n ->
      if n < 0 || n >= num_nodes then
        fail "Topology.build: flow %s %s visits node %d outside the %d-node \
              graph"
          label what n num_nodes;
      if Hashtbl.mem seen n then
        fail "Topology.build: flow %s %s visits node %d twice" label what n;
      Hashtbl.replace seen n ())
    route;
  let rec hops = function
    | a :: (b :: _ as rest) ->
      (match Hashtbl.find_opt edges (a, b) with
      | Some id -> id :: hops rest
      | None ->
        fail "Topology.build: flow %s %s has no link %d -> %d" label what a b)
    | _ -> []
  in
  Array.of_list (hops route)

let validate_flow ~num_nodes ~edges def =
  if def.start_at < 0. then
    fail "Topology.build: flow %s starts at negative time %g" def.label
      def.start_at;
  (match def.stop_at with
  | Some s when s <= def.start_at ->
    fail "Topology.build: flow %s stops at %g, not after its start %g"
      def.label s def.start_at
  | _ -> ());
  (match def.size with
  | Some z when z <= 0 ->
    fail "Topology.build: flow %s size must be positive" def.label
  | _ -> ());
  if def.extra_rtt < 0. then
    fail "Topology.build: flow %s extra_rtt is negative" def.label;
  let fwd =
    validate_route ~num_nodes ~edges ~what:"route" ~label:def.label def.route
  in
  let rev =
    match def.rev_route with
    | None -> None
    | Some r ->
      let first = List.hd def.route
      and last = List.nth def.route (List.length def.route - 1) in
      if List.hd r <> last || List.nth r (List.length r - 1) <> first then
        fail "Topology.build: flow %s reverse route must run %d -> %d, back \
              along the forward route's endpoints"
          def.label last first;
      Some
        (validate_route ~num_nodes ~edges ~what:"reverse route"
           ~label:def.label r)
  in
  (fwd, rev)

(* ------------------------------------------------------------------ *)

let build engine ~rng ?nodes ~links:specs ?(rev_loss = 0.) ~flows:defs () =
  let computed_nodes =
    1 + List.fold_left (fun acc s -> max acc (max s.src s.dst)) 0 specs
  in
  let num_nodes =
    match nodes with
    | None -> computed_nodes
    | Some n ->
      if n < computed_nodes then
        fail "Topology.build: %d nodes but a link reaches node %d" n
          (computed_nodes - 1);
      n
  in
  if rev_loss < 0. || rev_loss > 1. then
    fail "Topology.build: rev_loss %g outside [0,1]" rev_loss;
  let edges = validate_links ~num_nodes specs in
  let flow_routes =
    List.map (fun def -> validate_flow ~num_nodes ~edges def) defs
  in
  (* Wiring below consumes the RNG in a frozen order: one split per link
     in list order, then per flow (in list order) one split for the ideal
     reverse line iff the flow is reverse-loss-capable, then one split
     for the transport. The Path/Multihop wrappers depend on this to keep
     seeded simulations bit-identical with their pre-graph builders. *)
  let specs_a = Array.of_list specs in
  let names =
    Array.mapi
      (fun i (s : link_spec) ->
        match s.name with Some n -> n | None -> Printf.sprintf "link%d" i)
      specs_a
  in
  let links =
    Array.of_list
      (List.mapi
         (fun i (s : link_spec) ->
           Link.create engine ~name:names.(i) ~loss:s.loss ~jitter:s.jitter
             ~rng:(Rng.split rng) ~bandwidth:s.bandwidth ~delay:s.delay
             ~queue:(make_queue s.queue ~capacity:s.buffer)
             ())
         specs)
  in
  let fwd_tables = Array.init num_nodes (fun _ -> Hashtbl.create 8) in
  let rev_tables = Array.init num_nodes (fun _ -> Hashtbl.create 8) in
  Array.iteri
    (fun i l ->
      let dst = specs_a.(i).dst in
      Link.set_receiver l (fun pkt ->
          let tbl =
            match pkt.Packet.kind with
            | Packet.Data _ -> fwd_tables.(dst)
            | Packet.Ack _ -> rev_tables.(dst)
          in
          match Hashtbl.find_opt tbl pkt.Packet.flow with
          | Some deliver -> deliver pkt
          | None -> ()))
    links;
  let n = List.length defs in
  let built = Array.make n None in
  let revs = Array.make n { line = None; lossy = false } in
  let routes = Array.make n [||] in
  let hooks = Array.init n (fun _ -> ref []) in
  List.iteri
    (fun i (def, (fwd_ids, rev_ids)) ->
      routes.(i) <- fwd_ids;
      let prop ids =
        Array.fold_left (fun acc id -> acc +. specs_a.(id).delay) 0. ids
      in
      let fwd_prop = prop fwd_ids in
      let rev_line, ack_out, rtt_hint =
        match rev_ids with
        | None ->
          (* Ideal reverse: matching propagation delay plus this flow's
             extra share, lossy iff the flow opted in. *)
          let delay = fwd_prop +. (def.extra_rtt /. 2.) in
          let rev =
            if def.rev_lossy then
              Delay_line.create engine ~loss:rev_loss ~rng:(Rng.split rng)
                ~delay ()
            else Delay_line.create engine ~delay ()
          in
          (Some rev, Delay_line.send rev, (2. *. fwd_prop) +. def.extra_rtt)
        | Some ids ->
          ( None,
            Link.send links.(ids.(0)),
            fwd_prop +. prop ids +. def.extra_rtt )
      in
      revs.(i) <-
        { line = rev_line; lossy = def.rev_lossy && Option.is_some rev_line };
      let receiver = Receiver.create engine ~ack_out in
      let fwd : (Packet.t -> unit) ref = ref (fun _ -> ()) in
      let on_complete at =
        match built.(i) with
        | Some b ->
          let fct = at -. b.def.start_at in
          b.fct <- Some fct;
          if Pcc_trace.Collector.enabled () then
            Pcc_trace.Collector.emit Pcc_trace.Event.Flow_complete ~time:at
              ~id:b.sender.Sender.flow ~a:fct ~b:0. ~i:0;
          List.iter (fun f -> f fct) !(hooks.(i))
        | None -> ()
      in
      let sender =
        Transport.build engine ~rng:(Rng.split rng) ?size:def.size
          ~on_complete ~rtt_hint def.transport
          ~out:(fun pkt -> !fwd pkt)
      in
      (* Forward entry: optional per-flow access delay, then the route's
         first link. *)
      let first_link = links.(fwd_ids.(0)) in
      (if def.extra_rtt > 0. then begin
         let access =
           Delay_line.create engine ~delay:(def.extra_rtt /. 2.) ()
         in
         Delay_line.set_receiver access (Link.send first_link);
         fwd := Delay_line.send access
       end
       else fwd := Link.send first_link);
      let fid = sender.Sender.flow in
      (* The scenario label ("pcc #2", "cubic-competitor", ...) is more
         telling than the transport's own registration; overwrite it. *)
      Pcc_trace.Collector.register Pcc_trace.Event.Flow_scope ~id:fid
        def.label;
      let route_a = Array.of_list def.route in
      for k = 1 to Array.length route_a - 1 do
        if k = Array.length route_a - 1 then
          Hashtbl.replace fwd_tables.(route_a.(k)) fid
            (Receiver.on_packet receiver)
        else
          Hashtbl.replace fwd_tables.(route_a.(k)) fid
            (Link.send links.(fwd_ids.(k)))
      done;
      let ack_handler pkt =
        match pkt.Packet.kind with
        | Packet.Ack a -> sender.Sender.handle_ack a
        | Packet.Data _ -> ()
      in
      (match (rev_line, rev_ids, def.rev_route) with
      | Some line, _, _ -> Delay_line.set_receiver line ack_handler
      | None, Some ids, Some rroute ->
        let final =
          if def.extra_rtt > 0. then begin
            let tail =
              Delay_line.create engine ~delay:(def.extra_rtt /. 2.) ()
            in
            Delay_line.set_receiver tail ack_handler;
            Delay_line.send tail
          end
          else ack_handler
        in
        let rroute_a = Array.of_list rroute in
        for k = 1 to Array.length rroute_a - 1 do
          if k = Array.length rroute_a - 1 then
            Hashtbl.replace rev_tables.(rroute_a.(k)) fid final
          else
            Hashtbl.replace rev_tables.(rroute_a.(k)) fid
              (Link.send links.(ids.(k)))
        done
      | None, _, _ -> assert false);
      built.(i) <- Some { def; sender; receiver; fct = None };
      ignore
        (Engine.schedule engine ~at:def.start_at (fun () ->
             if Pcc_trace.Collector.enabled () then
               Pcc_trace.Collector.emit Pcc_trace.Event.Flow_start
                 ~time:(Engine.now engine) ~id:fid ~a:0. ~b:0. ~i:0;
             sender.Sender.start ()));
      match def.stop_at with
      | Some at ->
        ignore
          (Engine.schedule engine ~at (fun () ->
               if Pcc_trace.Collector.enabled () then
                 Pcc_trace.Collector.emit Pcc_trace.Event.Flow_stop
                   ~time:(Engine.now engine) ~id:fid ~a:0. ~b:0. ~i:0;
               sender.Sender.stop ()))
      | None -> ())
    (List.combine defs flow_routes);
  (* Periodic link-queue occupancy samples. The probe reschedules itself
     without end, so it is armed only while a collector is installed in
     this domain — traced runs are always time-bounded ([run ~until]). *)
  (match Pcc_trace.Collector.current () with
  | Some c when Pcc_trace.Collector.wants c Pcc_trace.Event.cat_link ->
    let dt = Pcc_trace.Collector.probe_interval c in
    let rec probe () =
      let now = Engine.now engine in
      Array.iter
        (fun l ->
          let q = Link.queue l in
          Pcc_trace.Collector.emit Pcc_trace.Event.Queue_sample ~time:now
            ~id:(Link.trace_id l)
            ~a:(float_of_int (q.Queue_disc.len_bytes ()))
            ~b:0.
            ~i:(q.Queue_disc.len_pkts ()))
        links;
      Engine.post_in engine ~after:dt probe
    in
    Engine.post_in engine ~after:dt probe
  | Some _ | None -> ());
  let strip = function Some x -> x | None -> assert false in
  {
    engine;
    num_nodes;
    links;
    specs = specs_a;
    names;
    edges;
    built = Array.map strip built;
    routes;
    revs;
    fwd_tables;
    rev_tables;
    hooks;
    rev_loss;
  }

(* ------------------------------------------------------------------ *)
(* Accessors *)

let engine t = t.engine
let flows t = t.built
let num_nodes t = t.num_nodes
let num_links t = Array.length t.links
let links t = Array.copy t.links

let check_link t id =
  if id < 0 || id >= Array.length t.links then
    fail "Topology: link id %d outside [0,%d)" id (Array.length t.links)

let check_flow t id =
  if id < 0 || id >= Array.length t.built then
    fail "Topology: flow %d outside [0,%d)" id (Array.length t.built)

let link_at t id =
  check_link t id;
  t.links.(id)

let link_name t id =
  check_link t id;
  t.names.(id)

let link_between t a b = Hashtbl.find_opt t.edges (a, b)

let route_links t ~flow =
  check_flow t flow;
  Array.to_list t.routes.(flow)

let goodput_bytes b = Receiver.goodput_bytes b.receiver

let on_complete t ~flow f =
  check_flow t flow;
  t.hooks.(flow) := f :: !(t.hooks.(flow))

(* ------------------------------------------------------------------ *)
(* Dynamic knobs *)

let set_link_bandwidth t id bw =
  check_link t id;
  Link.set_bandwidth t.links.(id) bw

let set_link_delay t id d =
  check_link t id;
  Link.set_delay t.links.(id) d

let set_link_loss t id l =
  check_link t id;
  Link.set_loss t.links.(id) l

let rev_loss t = t.rev_loss

let set_rev_loss t l =
  t.rev_loss <- Float.max 0. (Float.min 1. l);
  Array.iter
    (fun r ->
      match r.line with
      | Some line when r.lossy -> Delay_line.set_loss line t.rev_loss
      | _ -> ())
    t.revs

let set_rev_delay t ~flow d =
  check_flow t flow;
  match t.revs.(flow).line with
  | Some line -> Delay_line.set_delay line d
  | None ->
    fail "Topology.set_rev_delay: flow %d routes its acks over links" flow

let set_base_rtt t ?(link = 0) rtt =
  check_link t link;
  Link.set_delay t.links.(link) (rtt /. 2.);
  Array.iteri
    (fun i r ->
      match r.line with
      | Some line ->
        let extra = t.built.(i).def.extra_rtt in
        Delay_line.set_delay line ((rtt /. 2.) +. (extra /. 2.))
      | None -> ())
    t.revs

(* ------------------------------------------------------------------ *)
(* Cross traffic *)

let send_link t id pkt =
  check_link t id;
  Link.send t.links.(id) pkt

let deliver_at t ~node ~flow deliver =
  if node < 0 || node >= t.num_nodes then
    fail "Topology.deliver_at: node %d outside [0,%d)" node t.num_nodes;
  Hashtbl.replace t.fwd_tables.(node) flow deliver

(* ------------------------------------------------------------------ *)

let rec queue_label = function
  | Droptail -> "droptail"
  | Droptail_pkts n -> Printf.sprintf "droptail(%d pkts)" n
  | Codel -> "codel"
  | Red -> "red"
  | Infinite -> "infinite"
  | Fq inner -> Printf.sprintf "fq(%s)" (queue_label inner)

let describe t =
  let b = Buffer.create 512 in
  Printf.bprintf b "topology: %d nodes, %d links, %d flows\n" t.num_nodes
    (Array.length t.links) (Array.length t.built);
  Array.iteri
    (fun i l ->
      let s = t.specs.(i) in
      Printf.bprintf b
        "  link %-12s %d -> %d  %.3g Mbps  %.3g ms  buffer %d B  %s" t.names.(i)
        s.src s.dst
        (Link.bandwidth l /. 1e6)
        (Link.delay l *. 1e3)
        s.buffer (queue_label s.queue);
      if Link.loss l > 0. then Printf.bprintf b "  loss %g" (Link.loss l);
      if Link.jitter l > 0. then
        Printf.bprintf b "  jitter %.3g ms" (Link.jitter l *. 1e3);
      Buffer.add_char b '\n')
    t.links;
  Array.iteri
    (fun i bf ->
      let d = bf.def in
      let route_str r = String.concat "->" (List.map string_of_int r) in
      Printf.bprintf b "  flow %-12s %-8s route %s  reverse %s" d.label
        (Transport.name d.transport)
        (route_str d.route)
        (match d.rev_route with
        | Some r -> route_str r
        | None -> (
          match t.revs.(i).line with
          | Some line ->
            Printf.sprintf "ideal (%.3g ms%s)"
              (Delay_line.delay line *. 1e3)
              (if t.revs.(i).lossy then ", lossy-capable" else "")
          | None -> "ideal"));
      Printf.bprintf b "  start %g" d.start_at;
      (match d.stop_at with Some s -> Printf.bprintf b "  stop %g" s | None -> ());
      (match d.size with
      | Some z -> Printf.bprintf b "  size %d B" z
      | None -> ());
      if d.extra_rtt > 0. then
        Printf.bprintf b "  extra_rtt %.3g ms" (d.extra_rtt *. 1e3);
      Buffer.add_char b '\n')
    t.built;
  Buffer.contents b
