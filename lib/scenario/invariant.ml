open Pcc_sim
open Pcc_net

type violation = { time : float; check : string; detail : string }

exception Violation of violation

let () =
  Printexc.register_printer (function
    | Violation { time; check; detail } ->
      Some
        (Printf.sprintf "Invariant.Violation: [%s] at t=%.6f: %s" check time
           detail)
    | _ -> None)

type link_watch = {
  link : Link.t;
  lname : string;
  mutable last_bw : float;
  mutable cap_bits : float;  (* integral of serialization capacity, bits *)
  base_bytes : int;  (* delivered - duplicated bytes at attach time *)
}

type t = {
  engine : Engine.t;
  interval : float;
  on_violation : violation -> unit;
  links : link_watch array;
  goodputs : (unit -> int) array;  (* per watched flow *)
  mutable last_goodput : int array;
  mutable last_time : float;
  mutable checks_run : int;
  mutable stopped : bool;
}

let watch_of_link link name =
  {
    link;
    lname = name;
    last_bw = Link.bandwidth link;
    cap_bits = 0.;
    base_bytes = Link.delivered_bytes link - Link.duplicated_bytes link;
  }

let fail t ~check fmt =
  Printf.ksprintf
    (fun detail ->
      t.on_violation { time = Engine.now t.engine; check; detail })
    fmt

let check_link t w =
  let l = w.link in
  let q = Link.queue l in
  let now = Engine.now t.engine in
  (* Packet conservation: everything offered to the link is accounted for
     exactly once (plus scheduled duplicates). *)
  let offered = Link.offered_pkts l + Link.duplicated_pkts l in
  let accounted =
    Link.delivered_pkts l + Link.channel_losses l
    + q.Queue_disc.drops ()
    + q.Queue_disc.len_pkts ()
    + Link.in_flight_pkts l
  in
  if offered <> accounted then
    fail t ~check:"conservation"
      "%s: offered+duplicated=%d but delivered=%d + losses=%d + qdrops=%d + \
       queued=%d + in-flight=%d = %d"
      w.lname offered (Link.delivered_pkts l) (Link.channel_losses l)
      (q.Queue_disc.drops ())
      (q.Queue_disc.len_pkts ())
      (Link.in_flight_pkts l) accounted;
  (* Queue occupancy within the discipline's advertised bound. *)
  (match q.Queue_disc.capacity_bytes () with
  | Some cap ->
    let len = q.Queue_disc.len_bytes () in
    if len > cap then
      fail t ~check:"occupancy" "%s: %d bytes queued exceeds capacity %d"
        w.lname len cap
  | None -> ());
  (* Serialized bytes bounded by the capacity integral. Bandwidth changes
     are sampled at check ticks; taking the max of the endpoints is exact
     as long as at most one change falls inside a tick (fault timescales
     are much coarser than the default 50 ms interval). *)
  let dt = now -. t.last_time in
  let bw = Link.bandwidth l in
  w.cap_bits <- w.cap_bits +. (dt *. Float.max bw w.last_bw);
  w.last_bw <- bw;
  let unique = Link.delivered_bytes l - Link.duplicated_bytes l - w.base_bytes in
  let slack = float_of_int (8 * 2 * Units.mss) in
  if float_of_int (8 * unique) > w.cap_bits +. slack then
    fail t ~check:"throughput"
      "%s: %d delivered bytes exceed the capacity integral %.0f bits"
      w.lname unique w.cap_bits

let check_goodputs t =
  Array.iteri
    (fun i g ->
      let v = g () in
      if v < t.last_goodput.(i) then
        fail t ~check:"goodput-monotone" "flow %d goodput fell from %d to %d" i
          t.last_goodput.(i) v;
      t.last_goodput.(i) <- v)
    t.goodputs

let sweep t =
  let now = Engine.now t.engine in
  if now < t.last_time then
    fail t ~check:"clock-monotone" "clock moved backwards: %.9f after %.9f" now
      t.last_time;
  Array.iter (check_link t) t.links;
  check_goodputs t;
  t.last_time <- now;
  t.checks_run <- t.checks_run + 1

let check_now = sweep

(* Reschedule before sweeping: a sweep that raises (default on_violation)
   must not kill the recurring timer, or a caller that catches the
   Event_error and runs the engine on would never be checked again. *)
let rec tick t =
  if not t.stopped then begin
    Engine.post_in t.engine ~after:t.interval (fun () -> tick t);
    sweep t
  end

let start engine ?(interval = 0.05) ?on_violation ~links ~goodputs () =
  if interval <= 0. then
    invalid_arg "Invariant.attach: interval must be positive";
  let on_violation =
    match on_violation with
    | Some f -> f
    | None -> fun v -> raise (Violation v)
  in
  let t =
    {
      engine;
      interval;
      on_violation;
      links;
      goodputs;
      last_goodput = Array.map (fun g -> g ()) goodputs;
      last_time = Engine.now engine;
      checks_run = 0;
      stopped = false;
    }
  in
  Engine.post_in engine ~after:interval (fun () -> tick t);
  t

let attach_link engine ?interval ?on_violation ?(name = "link") link =
  start engine ?interval ?on_violation
    ~links:[| watch_of_link link name |]
    ~goodputs:[||] ()

let attach_topology ?interval ?on_violation topo =
  start (Topology.engine topo) ?interval ?on_violation
    ~links:
      (Array.mapi
         (fun i l -> watch_of_link l (Topology.link_name topo i))
         (Topology.links topo))
    ~goodputs:
      (Array.map
         (fun f () -> Topology.goodput_bytes f)
         (Topology.flows topo))
    ()

let stop t = t.stopped <- true
let checks_run t = t.checks_run
