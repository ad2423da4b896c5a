open Pcc_sim

type link = {
  src : int;
  dst : int;
  bandwidth : float;
  delay : float;
  buffer : int;
  queue : Topology.queue_kind;
  loss : float;
  jitter : float;
}

type flow = {
  transport : string;
  route : int list;
  rev_route : int list option;
  rev_lossy : bool;
  start_at : float;
  stop_at : float option;
  size : int option;
  extra_rtt : float;
}

type cross = {
  cross_link : int;
  rate : float;
  on_mean : float;
  off_mean : float;
}

type dynamics = {
  dyn_link : int;
  period : float;
  bw_lo : float;
  bw_hi : float;
  rtt_lo : float;
  rtt_hi : float;
  loss_lo : float;
  loss_hi : float;
}

type t = {
  seed : int;
  duration : float;
  links : link list;
  flows : flow list;
  faults : Fault.schedule;
  cross : cross list;
  dynamics : dynamics option;
}

let equal a b = compare a b = 0

let describe t =
  let flow_names =
    String.concat "," (List.map (fun f -> f.transport) t.flows)
  in
  Printf.sprintf
    "seed=%d dur=%.2fs links=%d flows=%d(%s) faults=%d cross=%d dyn=%s"
    t.seed t.duration (List.length t.links) (List.length t.flows) flow_names
    (List.length t.faults) (List.length t.cross)
    (match t.dynamics with Some _ -> "yes" | None -> "no")

(* ------------------------------------------------------------------ *)
(* Building *)

type built = { topo : Topology.t; stop : unit -> unit }

let build engine (s : t) =
  if s.duration <= 0. || not (Float.is_finite s.duration) then
    invalid_arg "Scenario.build: duration must be positive";
  let num_links = List.length s.links in
  List.iter
    (fun c ->
      if c.cross_link < 0 || c.cross_link >= num_links then
        invalid_arg "Scenario.build: cross-traffic link out of range")
    s.cross;
  let specs =
    List.map
      (fun f ->
        match Transport.of_name f.transport with
        | Ok sp -> sp
        | Error m -> invalid_arg ("Scenario.build: " ^ m))
      s.flows
  in
  (* Fixed split order — the determinism contract of the mli. *)
  let rng = Rng.create s.seed in
  let topo_rng = Rng.split rng in
  let dyn_rng = Rng.split rng in
  let cross_rngs = List.map (fun _ -> Rng.split rng) s.cross in
  let links =
    List.map
      (fun l ->
        Topology.link ~delay:l.delay ~buffer:l.buffer ~queue:l.queue
          ~loss:l.loss ~jitter:l.jitter ~src:l.src ~dst:l.dst
          ~bandwidth:l.bandwidth ())
      s.links
  in
  let tflows =
    List.map2
      (fun f sp ->
        Topology.flow ?stop_at:f.stop_at ?size:f.size ?rev_route:f.rev_route
          ~rev_lossy:f.rev_lossy ~start_at:f.start_at ~extra_rtt:f.extra_rtt
          ~route:f.route sp)
      s.flows specs
  in
  let topo = Topology.build engine ~rng:topo_rng ~links ~flows:tflows () in
  if s.faults <> [] then Fault.inject (Fault.target_of_topology topo) s.faults;
  let crosses =
    List.map2
      (fun c crng ->
        Cross_traffic.onoff engine ~rng:crng
          ~sink:(fun p -> Topology.send_link topo c.cross_link p)
          ~rate:c.rate ~on_mean:c.on_mean ~off_mean:c.off_mean ())
      s.cross cross_rngs
  in
  let dyn =
    Option.map
      (fun d ->
        Dynamics.start engine ~rng:dyn_rng ~topo ~link:d.dyn_link
          ~period:d.period ~bw_range:(d.bw_lo, d.bw_hi)
          ~rtt_range:(d.rtt_lo, d.rtt_hi) ~loss_range:(d.loss_lo, d.loss_hi)
          ())
      s.dynamics
  in
  {
    topo;
    stop =
      (fun () ->
        List.iter Cross_traffic.stop crosses;
        Option.iter Dynamics.stop dyn);
  }

(* ------------------------------------------------------------------ *)
(* Serialization *)

let magic = "PCCSCN"

(* Version history:
   1 — initial format.
   2 — identical layout; marks the extended transport vocabulary
       (pcc-vivace as a true Vivace controller, the pcc-proteus family)
       so an old binary rejects a new blob at the header instead of
       failing later in Transport.of_name. *)
let version = 2

let rec write_queue w (q : Topology.queue_kind) =
  let open Persist.Writer in
  match q with
  | Topology.Droptail -> u8 w 0
  | Topology.Droptail_pkts n ->
    u8 w 1;
    int w n
  | Topology.Codel -> u8 w 2
  | Topology.Red -> u8 w 3
  | Topology.Infinite -> u8 w 4
  | Topology.Fq inner ->
    u8 w 5;
    write_queue w inner

let rec read_queue r : Topology.queue_kind =
  let open Persist.Reader in
  match u8 r with
  | 0 -> Topology.Droptail
  | 1 -> Topology.Droptail_pkts (int r)
  | 2 -> Topology.Codel
  | 3 -> Topology.Red
  | 4 -> Topology.Infinite
  | 5 -> Topology.Fq (read_queue r)
  | n -> raise (Persist.Corrupt (Printf.sprintf "unknown queue tag %d" n))

let write_fault_kind w (k : Fault.kind) =
  let open Persist.Writer in
  match k with
  | Fault.Blackout { duration } ->
    u8 w 0;
    float w duration
  | Fault.Loss_burst { duration; loss } ->
    u8 w 1;
    float w duration;
    float w loss
  | Fault.Bandwidth_cliff { duration; factor } ->
    u8 w 2;
    float w duration;
    float w factor
  | Fault.Bandwidth_flap { count; period; factor } ->
    u8 w 3;
    int w count;
    float w period;
    float w factor
  | Fault.Delay_spike { duration; extra } ->
    u8 w 4;
    float w duration;
    float w extra
  | Fault.Jitter_burst { duration; jitter } ->
    u8 w 5;
    float w duration;
    float w jitter
  | Fault.Reverse_blackhole { duration } ->
    u8 w 6;
    float w duration
  | Fault.Reverse_loss_burst { duration; loss } ->
    u8 w 7;
    float w duration;
    float w loss
  | Fault.Duplication_episode { duration; prob } ->
    u8 w 8;
    float w duration;
    float w prob
  | Fault.Reordering_episode { duration; prob; extra } ->
    u8 w 9;
    float w duration;
    float w prob;
    float w extra
  | Fault.Partition { duration; hop } ->
    u8 w 10;
    float w duration;
    int w hop

let read_fault_kind r : Fault.kind =
  let open Persist.Reader in
  match u8 r with
  | 0 -> Fault.Blackout { duration = float r }
  | 1 ->
    let duration = float r in
    Fault.Loss_burst { duration; loss = float r }
  | 2 ->
    let duration = float r in
    Fault.Bandwidth_cliff { duration; factor = float r }
  | 3 ->
    let count = int r in
    let period = float r in
    Fault.Bandwidth_flap { count; period; factor = float r }
  | 4 ->
    let duration = float r in
    Fault.Delay_spike { duration; extra = float r }
  | 5 ->
    let duration = float r in
    Fault.Jitter_burst { duration; jitter = float r }
  | 6 -> Fault.Reverse_blackhole { duration = float r }
  | 7 ->
    let duration = float r in
    Fault.Reverse_loss_burst { duration; loss = float r }
  | 8 ->
    let duration = float r in
    Fault.Duplication_episode { duration; prob = float r }
  | 9 ->
    let duration = float r in
    let prob = float r in
    Fault.Reordering_episode { duration; prob; extra = float r }
  | 10 ->
    let duration = float r in
    Fault.Partition { duration; hop = int r }
  | n -> raise (Persist.Corrupt (Printf.sprintf "unknown fault tag %d" n))

let to_string t =
  let open Persist.Writer in
  let w = create ~magic ~version in
  int w t.seed;
  float w t.duration;
  list w
    (fun w l ->
      int w l.src;
      int w l.dst;
      float w l.bandwidth;
      float w l.delay;
      int w l.buffer;
      write_queue w l.queue;
      float w l.loss;
      float w l.jitter)
    t.links;
  list w
    (fun w f ->
      string w f.transport;
      list w int f.route;
      option w (fun w r -> list w int r) f.rev_route;
      bool w f.rev_lossy;
      float w f.start_at;
      option w float f.stop_at;
      option w int f.size;
      float w f.extra_rtt)
    t.flows;
  list w
    (fun w (e : Fault.event) ->
      float w e.Fault.at;
      write_fault_kind w e.Fault.kind)
    t.faults;
  list w
    (fun w c ->
      int w c.cross_link;
      float w c.rate;
      float w c.on_mean;
      float w c.off_mean)
    t.cross;
  option w
    (fun w d ->
      int w d.dyn_link;
      float w d.period;
      float w d.bw_lo;
      float w d.bw_hi;
      float w d.rtt_lo;
      float w d.rtt_hi;
      float w d.loss_lo;
      float w d.loss_hi)
    t.dynamics;
  contents w

let of_string s =
  let open Persist.Reader in
  let r = of_string ~magic s in
  (* v1 blobs parse unchanged: the layout never moved, only the transport
     name vocabulary grew. *)
  if version r <> 1 && version r <> 2 then
    raise
      (Persist.Corrupt
         (Printf.sprintf "unsupported scenario version %d" (version r)));
  let seed = int r in
  let duration = float r in
  let links =
    list r (fun r ->
        let src = int r in
        let dst = int r in
        let bandwidth = float r in
        let delay = float r in
        let buffer = int r in
        let queue = read_queue r in
        let loss = float r in
        let jitter = float r in
        { src; dst; bandwidth; delay; buffer; queue; loss; jitter })
  in
  let flows =
    list r (fun r ->
        let transport = string r in
        let route = list r int in
        let rev_route = option r (fun r -> list r int) in
        let rev_lossy = bool r in
        let start_at = float r in
        let stop_at = option r float in
        let size = option r int in
        let extra_rtt = float r in
        {
          transport;
          route;
          rev_route;
          rev_lossy;
          start_at;
          stop_at;
          size;
          extra_rtt;
        })
  in
  let faults =
    list r (fun r ->
        let at = float r in
        let kind = read_fault_kind r in
        { Fault.at; kind })
  in
  let cross =
    list r (fun r ->
        let cross_link = int r in
        let rate = float r in
        let on_mean = float r in
        let off_mean = float r in
        { cross_link; rate; on_mean; off_mean })
  in
  let dynamics =
    option r (fun r ->
        let dyn_link = int r in
        let period = float r in
        let bw_lo = float r in
        let bw_hi = float r in
        let rtt_lo = float r in
        let rtt_hi = float r in
        let loss_lo = float r in
        let loss_hi = float r in
        { dyn_link; period; bw_lo; bw_hi; rtt_lo; rtt_hi; loss_lo; loss_hi })
  in
  if not (at_end r) then
    raise (Persist.Corrupt "trailing bytes after scenario");
  { seed; duration; links; flows; faults; cross; dynamics }

(* ------------------------------------------------------------------ *)
(* Generation *)

(* Round to a fixed number of decimals: keeps generated values readable
   in repro files and gives the shrinker clean magnitudes to preserve. *)
let round_to ~decimals v =
  let scale = 10. ** float_of_int decimals in
  Float.round (v *. scale) /. scale

let gen_queue rng : Topology.queue_kind =
  match Rng.int rng 7 with
  | 0 -> Topology.Droptail
  | 1 -> Topology.Droptail_pkts (8 + Rng.int rng 56)
  | 2 -> Topology.Codel
  | 3 -> Topology.Red
  | 4 -> Topology.Infinite
  | 5 -> Topology.Fq Topology.Droptail
  | _ -> Topology.Fq Topology.Codel

let gen_link rng ~src ~dst =
  let bandwidth = round_to ~decimals:0 (Rng.log_uniform rng 1e6 6e7) in
  let delay = round_to ~decimals:4 (Rng.uniform rng 0.001 0.04) in
  let buffer =
    match Rng.int rng 3 with
    | 0 ->
      (* A random fraction of the 30 ms BDP: shallow to bloated. *)
      let bdp = Units.bdp_bytes ~rate:bandwidth ~rtt:0.03 in
      max (2 * Units.mss)
        (int_of_float (float_of_int bdp *. Rng.uniform rng 0.25 2.))
    | 1 -> Units.mss * (4 + Rng.int rng 28)
    | _ -> Units.bdp_bytes ~rate:bandwidth ~rtt:0.03
  in
  let queue = gen_queue rng in
  let loss =
    if Rng.bernoulli rng 0.35 then round_to ~decimals:4 (Rng.uniform rng 0. 0.03)
    else 0.
  in
  let jitter =
    if Rng.bernoulli rng 0.25 then
      round_to ~decimals:4 (Rng.uniform rng 0. 0.005)
    else 0.
  in
  { src; dst; bandwidth; delay; buffer; queue; loss; jitter }

let transport_menu = Array.of_list Transport.all_names

let gen_flow rng ~menu ~duration ~shape ~hops =
  let transport = Rng.pick rng menu in
  let route, rev_route =
    match shape with
    | `Dumbbell -> ([ 0; 1 ], None)
    | `Revpath ->
      ([ 0; 1 ], if Rng.bernoulli rng 0.5 then Some [ 1; 0 ] else None)
    | `Chain ->
      let a = Rng.int rng hops in
      let len = 1 + Rng.int rng (hops - a) in
      (List.init (len + 1) (fun k -> a + k), None)
  in
  let rev_lossy =
    match rev_route with Some _ -> true | None -> Rng.bernoulli rng 0.8
  in
  let start_at =
    if Rng.bernoulli rng 0.5 then 0.
    else round_to ~decimals:3 (Rng.uniform rng 0. (duration /. 3.))
  in
  let stop_at =
    if Rng.bernoulli rng 0.25 then
      Some
        (round_to ~decimals:3
           (start_at +. Rng.uniform rng 0.5 (Float.max 1. (duration -. start_at))))
    else None
  in
  let size =
    if Rng.bernoulli rng 0.3 then Some (Units.mss * (20 + Rng.int rng 1500))
    else None
  in
  let extra_rtt =
    if Rng.bernoulli rng 0.25 then
      round_to ~decimals:4 (Rng.uniform rng 0. 0.06)
    else 0.
  in
  { transport; route; rev_route; rev_lossy; start_at; stop_at; size; extra_rtt }

let generate ?menu ~rng () =
  let menu =
    match menu with
    | None -> transport_menu
    | Some names ->
      if names = [] then invalid_arg "Scenario.generate: empty transport menu";
      List.iter
        (fun n ->
          match Transport.of_name n with
          | Ok _ -> ()
          | Error m -> invalid_arg ("Scenario.generate: " ^ m))
        names;
      Array.of_list names
  in
  let duration = round_to ~decimals:2 (Rng.uniform rng 2. 6.) in
  let shape =
    match Rng.int rng 4 with
    | 0 | 1 -> `Dumbbell
    | 2 -> `Chain
    | _ -> `Revpath
  in
  let hops = match shape with `Chain -> 2 + Rng.int rng 3 | _ -> 1 in
  let links =
    match shape with
    | `Dumbbell -> [ gen_link rng ~src:0 ~dst:1 ]
    | `Revpath -> [ gen_link rng ~src:0 ~dst:1; gen_link rng ~src:1 ~dst:0 ]
    | `Chain -> List.init hops (fun i -> gen_link rng ~src:i ~dst:(i + 1))
  in
  let n_flows = 1 + Rng.int rng 4 in
  let flows =
    List.init n_flows (fun _ -> gen_flow rng ~menu ~duration ~shape ~hops)
  in
  (* Sub-streams are split unconditionally so the draw order stays fixed
     whether or not the feature is enabled. *)
  let fault_rng = Rng.split rng in
  let faults =
    if Rng.bernoulli rng 0.55 then
      Fault.chaos ~rng:fault_rng ~rate:0.5 ~start:(duration /. 5.) ~gap:0.3
        ~duration ()
    else []
  in
  let num_links = List.length links in
  let cross =
    if Rng.bernoulli rng 0.25 then begin
      let cross_link = Rng.int rng num_links in
      let bw = (List.nth links cross_link).bandwidth in
      [
        {
          cross_link;
          rate = round_to ~decimals:0 (bw *. Rng.uniform rng 0.05 0.4);
          on_mean = round_to ~decimals:3 (Rng.uniform rng 0.2 1.0);
          off_mean = round_to ~decimals:3 (Rng.uniform rng 0.2 1.0);
        };
      ]
    end
    else []
  in
  let dynamics =
    if Rng.bernoulli rng 0.15 then begin
      let dyn_link = Rng.int rng num_links in
      let bw = (List.nth links dyn_link).bandwidth in
      Some
        {
          dyn_link;
          period = round_to ~decimals:3 (duration /. 4.);
          bw_lo = round_to ~decimals:0 (bw *. 0.3);
          bw_hi = bw;
          rtt_lo = 0.01;
          rtt_hi = 0.08;
          loss_lo = 0.;
          loss_hi = 0.01;
        }
    end
    else None
  in
  let seed = Rng.int rng 1_000_000_000 in
  { seed; duration; links; flows; faults; cross; dynamics }
