(* The traced task. It builds the workload's topology from the public
   constructors, in [Topology.build]'s exact order — one RNG split for the
   link, then per flow one for the reverse line and one for the transport,
   with each flow's start scheduled right after its components — so it
   does the same simulated work as the untraced task. The parity check in
   [Bench] confirms that. Every handoff is wrapped in a span. *)

open Pcc_sim
open Pcc_net
open Pcc_scenario
open Workloads

type layers = {
  tracer : Spans.t;
  delivered : int;  (* first-time receptions *)
  queue_drops : int;
  mis : int;  (* Pcc_trace Mi_end events *)
}

type flow = {
  spec : Transport.spec;
  start_at : float;
  size : int option;
  extra_rtt : float;
}

(* The same flows [Exp_manyflow.topology] builds. *)
let fanin_flows ~n ~rtt =
  let fn = float_of_int n in
  Array.init n (fun i ->
      {
        spec = Transport.pcc ();
        start_at = 0.5 *. float_of_int i /. fn;
        size = Some 200_000;
        extra_rtt = rtt *. float_of_int (i mod 64) /. 64.;
      })

(* One collector per domain, masked to the PCC category. The simulation is
   run in short slices and the ring drained between them, so it never
   wraps. *)
let collector =
  Domain.DLS.new_key (fun () ->
      Pcc_trace.Collector.create ~capacity:65536 ~mask:Pcc_trace.Event.cat_pcc
        ())

let slice = 0.01

let drain c =
  if Pcc_trace.Collector.dropped c > 0 then
    failwith "perfbench: trace ring wrapped; shorten the slice";
  let n =
    Array.fold_left
      (fun a (r : Pcc_trace.Event.record) ->
        if r.Pcc_trace.Event.kind = Pcc_trace.Event.Mi_end then a + 1 else a)
      0
      (Pcc_trace.Collector.events c)
  in
  Pcc_trace.Collector.clear c;
  n

let run_traced task =
  let t0 = Host.now () in
  let engine = Engine.create () in
  let rng = Rng.create task.seed in
  let tr = Spans.create engine in
  let name, bandwidth, rtt, buffer, loss, rev_loss, flows =
    match task.shape with
    | Solo s ->
      ( "bottleneck",
        s.bandwidth,
        s.rtt,
        s.buffer,
        s.loss,
        s.rev_loss,
        [| { spec = s.spec; start_at = 0.; size = None; extra_rtt = 0. } |] )
    | Fanin f ->
      ( "fanin",
        f.bandwidth,
        f.rtt,
        Units.bdp_bytes ~rate:f.bandwidth ~rtt:f.rtt,
        0.,
        0.,
        fanin_flows ~n:f.n ~rtt:f.rtt )
  in
  let ack_layer = if is_pcc task then Spans.ack_pcc else Spans.ack_tcp in
  let link =
    Link.create engine ~name ~loss ~jitter:0. ~rng:(Rng.split rng) ~bandwidth
      ~delay:(rtt /. 2.)
      ~queue:(Queue_disc.droptail_bytes ~capacity:buffer ())
      ()
  in
  let link_send = Spans.wrap tr Spans.link (Link.send link) in
  let deliver = Hashtbl.create (Array.length flows) in
  Link.set_receiver link (fun pkt ->
      match pkt.Packet.kind with
      | Packet.Data _ -> (
        match Hashtbl.find_opt deliver pkt.Packet.flow with
        | Some f -> f pkt
        | None -> ())
      | Packet.Ack _ -> ());
  let delivered = ref 0 in
  let fct = Array.make (Array.length flows) None in
  let receivers =
    Array.mapi
      (fun i fl ->
        let fwd_prop = rtt /. 2. in
        let rev =
          Delay_line.create engine ~loss:rev_loss ~rng:(Rng.split rng)
            ~delay:(fwd_prop +. (fl.extra_rtt /. 2.))
            ()
        in
        let receiver =
          Receiver.create engine
            ~ack_out:(Spans.wrap tr Spans.delay_line (Delay_line.send rev))
        in
        let fwd = ref (fun (_ : Packet.t) -> ()) in
        let sender =
          Transport.build engine ~rng:(Rng.split rng) ?size:fl.size
            ~on_complete:(fun at -> fct.(i) <- Some (at -. fl.start_at))
            ~rtt_hint:((2. *. fwd_prop) +. fl.extra_rtt)
            fl.spec
            ~out:(Spans.wrap tr Spans.sender_out (fun pkt -> !fwd pkt))
        in
        (if fl.extra_rtt > 0. then begin
           let access =
             Delay_line.create engine ~delay:(fl.extra_rtt /. 2.) ()
           in
           Delay_line.set_receiver access link_send;
           fwd := Spans.wrap tr Spans.delay_line (Delay_line.send access)
         end
         else fwd := link_send);
        Hashtbl.replace deliver sender.Sender.flow
          (Spans.wrap tr Spans.receiver (fun pkt ->
               let before = Receiver.goodput_bytes receiver in
               Receiver.on_packet receiver pkt;
               if Receiver.goodput_bytes receiver > before then incr delivered));
        let handle_ack = Spans.wrap tr ack_layer sender.Sender.handle_ack in
        Delay_line.set_receiver rev (fun pkt ->
            match pkt.Packet.kind with
            | Packet.Ack a -> handle_ack a
            | Packet.Data _ -> ());
        ignore
          (Engine.schedule engine ~at:fl.start_at (fun () ->
               sender.Sender.start ()));
        receiver)
      flows
  in
  let t1 = Host.now () in
  let c = Domain.DLS.get collector in
  Pcc_trace.Collector.clear c;
  Pcc_trace.Collector.install c;
  let mis = ref 0 in
  Fun.protect ~finally:Pcc_trace.Collector.uninstall (fun () ->
      let rec go at =
        let at = Float.min at task.until in
        Spans.enter tr Spans.sim;
        Engine.run ~until:at engine;
        Spans.leave tr Spans.sim;
        mis := !mis + drain c;
        if at < task.until then go (at +. slice)
      in
      go slice);
  let t2 = Host.now () in
  ( {
      goodput = Array.map Receiver.goodput_bytes receivers;
      fct;
      events = Engine.executed engine;
    },
    {
      tracer = tr;
      delivered = !delivered;
      queue_drops = (Link.queue link).Queue_disc.drops ();
      mis = !mis;
    },
    { setup_s = t1 -. t0; build_s = t1 -. t0; task_s = t2 -. t0 } )
