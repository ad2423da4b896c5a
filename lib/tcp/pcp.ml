open Pcc_sim
open Pcc_net

type probe = {
  target : float;  (* probed rate, bps *)
  first_seq : int;
  last_seq : int;  (* inclusive; train is [first_seq, last_seq] *)
  mutable first_ack : float option;
  mutable last_ack : float option;
  mutable acks : int;
  mutable lost : bool;
}

let create engine ?(init_rate = Units.mbps 1.) ?(max_rate = Units.gbps 10.)
    ?(train_len = 10) ?size ?on_complete ~out () =
  let flow = Packet.fresh_flow_id () in
  let sb = Scoreboard.create () in
  (match size with
  | Some bytes -> Scoreboard.limit_pkts sb (Units.packets_of_bytes bytes)
  | None -> ());
  let sent_pkts = ref 0 in
  let completed = ref false in
  let running = ref false in
  let base_rate = ref init_rate in
  let ceiling = ref max_rate in
  let srtt = ref 0.1 in
  let probe : probe option ref = ref None in
  let probe_left = ref 0 in
  let pacer = ref None in
  let get_pacer () = match !pacer with Some p -> p | None -> assert false in
  let send_one () =
    if !completed || not !running then None
    else begin
      let seq, retx =
        match Scoreboard.take_retx sb with
        | Some seq -> (Some seq, true)
        | None -> (Scoreboard.fresh_seq sb, false)
      in
      match seq with
      | None -> None
      | Some seq ->
        let now = Engine.now engine in
        let pkt = Packet.data ~flow ~seq ~size:Units.mss ~now ~retx in
        Scoreboard.record_send sb seq ~now;
        incr sent_pkts;
        out pkt;
        if !probe_left > 0 then begin
          decr probe_left;
          if !probe_left = 0 then
            (* Train fully emitted: fall back to the base rate while the
               acks come home. *)
            Rate_pacer.set_rate (get_pacer ()) !base_rate
        end;
        Some Units.mss
    end
  in
  let finish () =
    if not !completed then begin
      completed := true;
      (match !pacer with Some p -> Rate_pacer.stop p | None -> ());
      match on_complete with Some f -> f (Engine.now engine) | None -> ()
    end
  in
  let next_target () =
    if !ceiling > !base_rate *. 1.9 then Float.min max_rate (!base_rate *. 2.)
    else if !ceiling > !base_rate *. 1.1 then
      (* Binary search between what worked and what did not. *)
      (!base_rate +. !ceiling) /. 2.
    else !base_rate *. 1.05
  in
  let conclude_probe (p : probe) success =
    if success then begin
      base_rate := Float.min max_rate p.target;
      (* Forget the old ceiling slowly so PCP keeps re-probing upward. *)
      if !ceiling < !base_rate *. 2. then ceiling := !base_rate *. 4.
    end
    else ceiling := p.target;
    probe := None;
    Rate_pacer.set_rate (get_pacer ()) !base_rate
  in
  let evaluate_probe (p : probe) =
    match (p.first_ack, p.last_ack) with
    | Some t0, Some t1 when p.acks >= max 2 (train_len - 2) && not p.lost ->
      let measured_gap = (t1 -. t0) /. float_of_int (p.acks - 1) in
      let sent_gap = float_of_int (Units.mss * 8) /. p.target in
      (* Success iff the train's dispersion did not grow: the available
         bandwidth sustained the probe rate without queueing. *)
      conclude_probe p (measured_gap <= sent_gap *. 1.15)
    | _ -> conclude_probe p false
  in
  let rec probe_tick () =
    if !running && not !completed then begin
      (if !probe = None then begin
         let target = next_target () in
         if target > !base_rate *. 1.01 then begin
           let first_seq = Scoreboard.next_seq sb in
           let p =
             {
               target;
               first_seq;
               last_seq = first_seq + train_len - 1;
               first_ack = None;
               last_ack = None;
               acks = 0;
               lost = false;
             }
           in
           probe := Some p;
           probe_left := train_len;
           Rate_pacer.set_rate (get_pacer ()) target;
           Rate_pacer.kick (get_pacer ());
           (* Deadline: if the acks never arrive, count as failure. *)
           let train_time =
             float_of_int (train_len * Units.mss * 8) /. target
           in
           Engine.post_in engine
             ~after:(train_time +. (3. *. !srtt))
             (fun () ->
               match !probe with
               | Some p' when p' == p -> evaluate_probe p
               | Some _ | None -> ())
         end
       end);
      (* Tail-loss watchdog: requeue stale packets and resume the pacer if
         retransmissions wait. *)
      ignore
        (Scoreboard.sweep_stale sb ~now:(Engine.now engine)
           ~min_age:(4. *. !srtt));
      if Scoreboard.has_retx sb then Rate_pacer.kick (get_pacer ());
      Engine.post_in engine ~after:(Float.max (2. *. !srtt) 0.05) probe_tick
    end
  in
  let handle_ack (a : Packet.ack) =
    if !running && not !completed then begin
      let now = Engine.now engine in
      if not a.Packet.data_retx then begin
        let sample = now -. a.Packet.data_sent_at in
        srtt := (0.875 *. !srtt) +. (0.125 *. sample)
      end;
      ignore (Scoreboard.on_ack sb a);
      (match !probe with
      | Some p
        when a.Packet.acked_seq >= p.first_seq
             && a.Packet.acked_seq <= p.last_seq ->
        if p.first_ack = None then p.first_ack <- Some now;
        p.last_ack <- Some now;
        p.acks <- p.acks + 1;
        if a.Packet.acked_seq = p.last_seq then evaluate_probe p
      | Some _ | None -> ());
      let losses =
        Scoreboard.detect_losses sb ~now ~min_age:(0.8 *. !srtt)
      in
      if losses <> [] then begin
        (match !probe with
        | Some p
          when List.exists (fun s -> s >= p.first_seq && s <= p.last_seq) losses
          -> p.lost <- true
        | Some _ | None -> ());
        base_rate := Float.max (Units.kbps 100.) (!base_rate *. 0.8);
        if !probe = None then Rate_pacer.set_rate (get_pacer ()) !base_rate
      end;
      if Scoreboard.complete sb then finish ()
      else Rate_pacer.kick (get_pacer ())
    end
  in
  let p = Rate_pacer.create engine ~rate:init_rate ~send:send_one in
  pacer := Some p;
  let start () =
    if (not !running) && not !completed then begin
      running := true;
      Rate_pacer.start p;
      Engine.post_in engine ~after:0.01 probe_tick
    end
  in
  let stop () =
    running := false;
    Rate_pacer.stop p
  in
  Sender.
    {
      flow;
      name = "pcp";
      start;
      stop;
      handle_ack;
      rate_estimate = (fun () -> !base_rate);
      acked_bytes = (fun () -> Scoreboard.acked_pkts sb * Units.mss);
      srtt = (fun () -> !srtt);
      sent_pkts = (fun () -> !sent_pkts);
      is_complete = (fun () -> !completed);
    }
