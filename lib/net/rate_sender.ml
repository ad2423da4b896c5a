open Pcc_sim

(* Float-only, so OCaml stores it unboxed: the per-ack update is a plain
   store. *)
type rtt = { mutable srtt : float }

type t = {
  engine : Engine.t;
  flow : int;
  sb : Scoreboard.t;
  rtt : rtt;
  mutable on_send : int -> unit;  (* the law's, from [sender] *)
  mutable running : bool;
  mutable completed : bool;
  mutable sent_pkts : int;
}

let flow t = t.flow
let scoreboard t = t.sb
let active t = t.running && not t.completed
let srtt t = t.rtt.srtt
let set_srtt t v = t.rtt.srtt <- v

let smooth_srtt t (a : Packet.ack) =
  if not a.Packet.data_retx then
    let sample = Engine.now t.engine -. a.Packet.data_sent_at in
    t.rtt.srtt <- (0.875 *. t.rtt.srtt) +. (0.125 *. sample)

let send_one t out =
  if not (active t) then None
  else begin
    let seq, retx =
      match Scoreboard.take_retx t.sb with
      | Some seq -> (Some seq, true)
      | None -> (Scoreboard.fresh_seq t.sb, false)
    in
    match seq with
    | None -> None
    | Some seq ->
      let now = Engine.now t.engine in
      let pkt = Packet.data ~flow:t.flow ~seq ~size:Units.mss ~now ~retx in
      Scoreboard.record_send t.sb seq ~now;
      t.sent_pkts <- t.sent_pkts + 1;
      t.on_send seq;
      out pkt;
      Some Units.mss
  end

let create engine ~rate ~srtt ?size ~out () =
  let flow = Packet.fresh_flow_id () in
  let sb = Scoreboard.create () in
  (match size with
  | Some bytes -> Scoreboard.limit_pkts sb (Units.packets_of_bytes bytes)
  | None -> ());
  let t =
    {
      engine;
      flow;
      sb;
      rtt = { srtt };
      on_send = ignore;
      running = false;
      completed = false;
      sent_pkts = 0;
    }
  in
  (t, Rate_pacer.create engine ~rate ~send:(fun () -> send_one t out))

let sender ?on_complete t p ~name ~on_start ~on_stop ~on_send ~on_ack
    ~on_losses ~on_tick ~stale_rtts ~on_stale ~rate =
  t.on_send <- on_send;
  (* One recursive group, so OCaml allocates these closures as one block
     with one environment: a flow keeps them for its whole life. *)
  let rec stop () =
    t.running <- false;
    Rate_pacer.stop p;
    on_stop ()
  and handle_ack a =
    if active t then begin
      on_ack a (Scoreboard.on_ack t.sb a);
      let losses =
        Scoreboard.detect_losses t.sb ~now:(Engine.now t.engine)
          ~min_age:(0.8 *. t.rtt.srtt)
      in
      if losses <> [] then on_losses losses;
      if Scoreboard.complete t.sb then begin
        t.completed <- true;
        stop ();
        match on_complete with Some f -> f (Engine.now t.engine) | None -> ()
      end
      else Rate_pacer.kick p
    end
  (* The tail-loss backstop (UDT's EXP timer): SACK gaps need successor
     traffic, so a loss at the end of a burst is only ever found here. *)
  and tick () =
    if active t then begin
      let after = on_tick () in
      on_stale
        (Scoreboard.sweep_stale t.sb ~now:(Engine.now t.engine)
           ~min_age:(stale_rtts *. t.rtt.srtt));
      (* [sweep_stale] queues every sequence it returns, so [has_retx]
         alone says whether anything waits. *)
      if Scoreboard.has_retx t.sb then Rate_pacer.kick p;
      Engine.post_in t.engine ~after tick
    end
  and start () =
    if (not t.running) && not t.completed then begin
      t.running <- true;
      let after = on_start () in
      Rate_pacer.start p;
      Engine.post_in t.engine ~after tick
    end
  and acked_bytes () = Scoreboard.acked_pkts t.sb * Units.mss
  and srtt () = t.rtt.srtt
  and sent_pkts () = t.sent_pkts
  and is_complete () = t.completed in
  Sender.
    {
      flow = t.flow;
      name;
      start;
      stop;
      handle_ack;
      rate_estimate = rate;
      acked_bytes;
      srtt;
      sent_pkts;
      is_complete;
    }
