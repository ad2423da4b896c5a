open Pcc_sim
open Pcc_net

let check_float = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Packet *)

let test_packet_data () =
  let p = Packet.data ~flow:1 ~seq:5 ~size:1500 ~now:2. ~retx:false in
  Alcotest.(check bool) "is data" true (Packet.is_data p);
  Alcotest.(check int) "seq" 5 p.Packet.seq;
  check_float "sent_at" 2. p.Packet.sent_at

(* A data packet allocates its record alone: its kind is shared. *)
let test_packet_shared_kinds () =
  let mk seq retx = Packet.data ~flow:1 ~seq ~size:1500 ~now:0. ~retx in
  Alcotest.(check bool) "fresh kinds shared" true
    ((mk 1 false).Packet.kind == (mk 2 false).Packet.kind);
  Alcotest.(check bool) "retx kinds shared" true
    ((mk 1 true).Packet.kind == (mk 2 true).Packet.kind);
  match ((mk 1 false).Packet.kind, (mk 1 true).Packet.kind) with
  | Packet.Data { retx = false }, Packet.Data { retx = true } -> ()
  | _ -> Alcotest.fail "kinds keep their retx flag"

let test_packet_ack () =
  let p = Packet.data ~flow:1 ~seq:5 ~size:1500 ~now:2. ~retx:true in
  let a = Packet.ack_of p ~cum_ack:3 ~recv_bytes:6000 ~now:2.5 in
  Alcotest.(check bool) "ack not data" false (Packet.is_data a);
  (match a.Packet.kind with
  | Packet.Ack info ->
    Alcotest.(check int) "acked seq" 5 info.Packet.acked_seq;
    Alcotest.(check int) "cum" 3 info.Packet.cum_ack;
    Alcotest.(check bool) "retx echo" true info.Packet.data_retx;
    check_float "timestamp echo" 2. info.Packet.data_sent_at
  | Packet.Data _ -> Alcotest.fail "expected ack");
  Alcotest.(check int) "ack wire size" Units.ack_size a.Packet.size

let test_packet_ack_of_ack_rejected () =
  let p = Packet.data ~flow:1 ~seq:0 ~size:1500 ~now:0. ~retx:false in
  let a = Packet.ack_of p ~cum_ack:0 ~recv_bytes:0 ~now:0. in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Packet.ack_of a ~cum_ack:0 ~recv_bytes:0 ~now:0.);
       false
     with Invalid_argument _ -> true)

let test_fresh_flow_ids () =
  let a = Packet.fresh_flow_id () and b = Packet.fresh_flow_id () in
  Alcotest.(check bool) "unique" true (a <> b)

(* Two domains drawing ids at once never receive the same one. Both
   wait at a start line so their draws overlap. *)
let test_fresh_flow_ids_across_domains () =
  let n = 100_000 in
  let ready = Atomic.make 0 in
  let take () =
    let ids = Array.make n 0 in
    Atomic.incr ready;
    while Atomic.get ready < 2 do
      Domain.cpu_relax ()
    done;
    for i = 0 to n - 1 do
      ids.(i) <- Packet.fresh_flow_id ()
    done;
    ids
  in
  let workers = List.init 2 (fun _ -> Domain.spawn take) in
  let ids = Array.concat (List.map Domain.join workers) in
  Array.sort compare ids;
  let repeats = ref 0 in
  for i = 1 to Array.length ids - 1 do
    if ids.(i) = ids.(i - 1) then incr repeats
  done;
  Alcotest.(check int) "no id handed out twice" 0 !repeats

(* ------------------------------------------------------------------ *)
(* Link *)

let make_link ?(bandwidth = Units.mbps 12.) ?(delay = 0.01) ?(loss = 0.)
    ?(capacity = 15000) engine =
  let rng = Rng.create 1 in
  let q = Queue_disc.droptail_bytes ~capacity () in
  let link =
    Link.create engine ~loss ~rng ~bandwidth ~delay ~queue:q ()
  in
  let received = ref [] in
  Link.set_receiver link (fun p ->
      received := (Engine.now engine, p) :: !received);
  (link, received)

let test_link_delivery_timing () =
  let engine = Engine.create () in
  let link, received = make_link engine in
  (* 1500 B at 12 Mbps = 1 ms serialization + 10 ms propagation. *)
  Link.send link (Packet.data ~flow:1 ~seq:0 ~size:1500 ~now:0. ~retx:false);
  Engine.run engine;
  match !received with
  | [ (t, p) ] ->
    Alcotest.(check int) "seq" 0 p.Packet.seq;
    Alcotest.(check (float 1e-9)) "arrival" 0.011 t
  | _ -> Alcotest.fail "expected exactly one delivery"

let test_link_serializes_in_order () =
  let engine = Engine.create () in
  let link, received = make_link engine in
  for seq = 0 to 4 do
    Link.send link (Packet.data ~flow:1 ~seq ~size:1500 ~now:0. ~retx:false)
  done;
  Engine.run engine;
  let seqs = List.rev_map (fun (_, p) -> p.Packet.seq) !received in
  Alcotest.(check (list int)) "in order" [ 0; 1; 2; 3; 4 ] seqs;
  (* Back-to-back packets are spaced by the serialization time. *)
  let times = List.map fst (List.rev !received) in
  (match times with
  | t0 :: t1 :: _ -> check_float "spacing = tx time" 0.001 (t1 -. t0)
  | _ -> Alcotest.fail "expected deliveries");
  check_float "busy time = 5 tx" 0.005 (Link.busy_time link)

let test_link_queue_overflow_drops () =
  let engine = Engine.create () in
  (* Queue capacity of 10 packets. *)
  let link, received = make_link ~capacity:15000 engine in
  for seq = 0 to 19 do
    Link.send link (Packet.data ~flow:1 ~seq ~size:1500 ~now:0. ~retx:false)
  done;
  Engine.run engine;
  (* One packet transmits immediately; 10 queue; the rest drop. *)
  Alcotest.(check int) "delivered" 11 (List.length !received);
  Alcotest.(check int) "queue drops" 9 ((Link.queue link).Queue_disc.drops ())

let test_link_random_loss () =
  let engine = Engine.create () in
  let link, received = make_link ~loss:0.5 ~capacity:15_000_000 engine in
  for seq = 0 to 999 do
    Link.send link (Packet.data ~flow:1 ~seq ~size:1500 ~now:0. ~retx:false)
  done;
  Engine.run engine;
  let n = List.length !received in
  Alcotest.(check bool) "roughly half lost" true (n > 400 && n < 600);
  Alcotest.(check int) "loss accounting" (1000 - n) (Link.channel_losses link)

let test_link_dynamic_bandwidth () =
  let engine = Engine.create () in
  let link, received = make_link engine in
  Link.send link (Packet.data ~flow:1 ~seq:0 ~size:1500 ~now:0. ~retx:false);
  Engine.run engine;
  Link.set_bandwidth link (Units.mbps 120.);
  Link.set_delay link 0.001;
  let t0 = Engine.now engine in
  Link.send link (Packet.data ~flow:1 ~seq:1 ~size:1500 ~now:t0 ~retx:false);
  Engine.run engine;
  match !received with
  | (t1, _) :: _ ->
    (* 0.1 ms serialization + 1 ms propagation at the new parameters. *)
    Alcotest.(check (float 1e-9)) "new timing" (t0 +. 0.0011) t1
  | [] -> Alcotest.fail "no delivery"

let test_link_bandwidth_change_mid_transmission () =
  (* Pins the documented Link.set_bandwidth semantics that bandwidth-cliff
     faults rely on: a packet already being serialized completes at the
     OLD rate; the new rate applies from the next dequeue. *)
  let engine = Engine.create () in
  let link, received = make_link ~bandwidth:(Units.mbps 12.) ~delay:0. engine in
  (* 1500 B at 12 Mbps = 1 ms serialization each. *)
  Link.send link (Packet.data ~flow:1 ~seq:0 ~size:1500 ~now:0. ~retx:false);
  Link.send link (Packet.data ~flow:1 ~seq:1 ~size:1500 ~now:0. ~retx:false);
  (* Mid-way through packet 0's serialization, grow the link 10x. *)
  ignore
    (Engine.schedule engine ~at:0.0005 (fun () ->
         Link.set_bandwidth link (Units.mbps 120.)));
  Engine.run engine;
  match List.rev !received with
  | [ (t0, p0); (t1, p1) ] ->
    Alcotest.(check int) "first seq" 0 p0.Packet.seq;
    Alcotest.(check int) "second seq" 1 p1.Packet.seq;
    (* Packet 0 keeps its pre-change completion time... *)
    check_float "in-flight packet finishes at the old rate" 0.001 t0;
    (* ...and packet 1 is the first to see the new 0.1 ms serialization. *)
    check_float "next packet serializes at the new rate" 0.0011 t1
  | l -> Alcotest.fail (Printf.sprintf "expected 2 deliveries, got %d" (List.length l))

let test_link_duplication_episode () =
  let engine = Engine.create () in
  let link, received = make_link engine in
  Link.set_duplication link 1.;
  Link.send link (Packet.data ~flow:1 ~seq:0 ~size:1500 ~now:0. ~retx:false);
  Engine.run engine;
  Alcotest.(check int) "delivered twice" 2 (List.length !received);
  Alcotest.(check int) "counted" 1 (Link.duplicated_pkts link);
  Alcotest.(check int) "dup bytes" 1500 (Link.duplicated_bytes link);
  Link.set_duplication link 0.;
  Link.send link (Packet.data ~flow:1 ~seq:1 ~size:1500 ~now:(Engine.now engine) ~retx:false);
  Engine.run engine;
  Alcotest.(check int) "episode over" 3 (List.length !received)

let test_link_reordering_episode () =
  let engine = Engine.create () in
  let link, received = make_link engine in
  (* Every packet gets +50 ms: with 1 ms serialization spacing, seq 0
     (delayed) arrives after seq 1 would have without its own delay — use
     prob 1 on seq 0 only by toggling the episode off in between. *)
  Link.set_reordering link ~prob:1. ~extra:0.05;
  Link.send link (Packet.data ~flow:1 ~seq:0 ~size:1500 ~now:0. ~retx:false);
  ignore
    (Engine.schedule engine ~at:0.0015 (fun () ->
         Link.set_reordering link ~prob:0. ~extra:0.;
         Link.send link
           (Packet.data ~flow:1 ~seq:1 ~size:1500 ~now:0.0015 ~retx:false)));
  Engine.run engine;
  let seqs = List.rev_map (fun (_, p) -> p.Packet.seq) !received in
  Alcotest.(check (list int)) "arrivals out of order" [ 1; 0 ] seqs;
  Alcotest.(check int) "counted" 1 (Link.reordered_pkts link)

let test_link_rejects_bad_args () =
  let engine = Engine.create () in
  let rng = Rng.create 1 in
  let q = Queue_disc.infinite () in
  Alcotest.(check bool) "bad bandwidth" true
    (try
       ignore (Link.create engine ~rng ~bandwidth:0. ~delay:0.01 ~queue:q ());
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Delay line *)

let test_delay_line () =
  let engine = Engine.create () in
  let dl = Delay_line.create engine ~delay:0.25 () in
  let arrived = ref None in
  Delay_line.set_receiver dl (fun p -> arrived := Some (Engine.now engine, p));
  Delay_line.send dl (Packet.data ~flow:1 ~seq:0 ~size:100 ~now:0. ~retx:false);
  Engine.run engine;
  match !arrived with
  | Some (t, _) -> check_float "delay honoured" 0.25 t
  | None -> Alcotest.fail "no delivery"

let test_delay_line_loss () =
  let engine = Engine.create () in
  let rng = Rng.create 2 in
  let dl = Delay_line.create engine ~loss:1.0 ~rng ~delay:0.1 () in
  let count = ref 0 in
  Delay_line.set_receiver dl (fun _ -> incr count);
  for seq = 0 to 9 do
    Delay_line.send dl (Packet.data ~flow:1 ~seq ~size:100 ~now:0. ~retx:false)
  done;
  Engine.run engine;
  Alcotest.(check int) "all lost" 0 !count;
  Alcotest.(check bool) "loss without rng rejected" true
    (try
       ignore (Delay_line.create engine ~loss:0.5 ~delay:0.1 ());
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Receiver *)

let make_receiver engine =
  let acks = ref [] in
  let r = Receiver.create engine ~ack_out:(fun a -> acks := a :: !acks) in
  (r, acks)

let data seq = Packet.data ~flow:1 ~seq ~size:1500 ~now:0. ~retx:false

let test_receiver_in_order () =
  let engine = Engine.create () in
  let r, acks = make_receiver engine in
  Receiver.on_packet r (data 0);
  Receiver.on_packet r (data 1);
  Receiver.on_packet r (data 2);
  Alcotest.(check int) "cum" 2 (Receiver.cum_ack r);
  Alcotest.(check int) "goodput" 4500 (Receiver.goodput_bytes r);
  Alcotest.(check int) "three acks" 3 (List.length !acks)

let test_receiver_out_of_order () =
  let engine = Engine.create () in
  let r, acks = make_receiver engine in
  Receiver.on_packet r (data 0);
  Receiver.on_packet r (data 2);
  Alcotest.(check int) "cum stalls" 0 (Receiver.cum_ack r);
  Receiver.on_packet r (data 1);
  Alcotest.(check int) "cum advances over hole" 2 (Receiver.cum_ack r);
  (* The ack for seq 1 must carry the advanced cumulative ack. *)
  match !acks with
  | last :: _ -> (
    match last.Packet.kind with
    | Packet.Ack a -> Alcotest.(check int) "cum in ack" 2 a.Packet.cum_ack
    | Packet.Data _ -> Alcotest.fail "expected ack")
  | [] -> Alcotest.fail "no acks"

let test_receiver_duplicates () =
  let engine = Engine.create () in
  let r, acks = make_receiver engine in
  Receiver.on_packet r (data 0);
  Receiver.on_packet r (data 0);
  Alcotest.(check int) "goodput counts once" 1500 (Receiver.goodput_bytes r);
  Alcotest.(check int) "received counts both" 2 (Receiver.received_pkts r);
  Alcotest.(check int) "both acked" 2 (List.length !acks)

(* Differential test against a [Set]-based model of the receiver: the
   structure the flat ring replaced. Arrival orders mix in-order
   delivery, duplicates, hole fills, short gaps and sequences far ahead,
   so the ring's base slides, its slots wrap and its capacity doubles
   several times per case. *)
module Ref_rcv = struct
  module S = Set.Make (Int)

  type t = { mutable seen : S.t; mutable cum_ack : int; mutable goodput : int }

  let create () = { seen = S.empty; cum_ack = -1; goodput = 0 }

  (* The (acked_seq, cum_ack, recv_bytes) of the ack [seq] elicits. *)
  let on_data t seq size =
    if not (S.mem seq t.seen) then begin
      t.seen <- S.add seq t.seen;
      t.goodput <- t.goodput + size;
      while S.mem (t.cum_ack + 1) t.seen do
        t.cum_ack <- t.cum_ack + 1
      done
    end;
    (seq, t.cum_ack, t.goodput)
end

type rcv_op = Next | Back of int | Fill | Skip of int | Far of int

let show_rcv_op = function
  | Next -> "next"
  | Back k -> Printf.sprintf "back %d" k
  | Fill -> "fill"
  | Skip k -> Printf.sprintf "skip %d" k
  | Far k -> Printf.sprintf "far %d" k

let rcv_op_gen =
  let open QCheck.Gen in
  frequency
    [
      (8, return Next);
      (2, map (fun k -> Back k) (int_bound 40));
      (2, return Fill);
      (1, map (fun k -> Skip k) (int_range 1 30));
      (1, map (fun k -> Far k) (int_range 50 700));
    ]

let prop_receiver_matches_set_model =
  QCheck.Test.make ~name:"receiver ring matches a Set model" ~count:300
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map show_rcv_op ops))
       ~shrink:QCheck.Shrink.list
       QCheck.Gen.(list_size (int_range 1 1500) rcv_op_gen))
    (fun ops ->
      let engine = Engine.create () in
      let last = ref None in
      let r =
        Receiver.create engine ~ack_out:(fun p ->
            match p.Packet.kind with
            | Packet.Ack a ->
              last :=
                Some (a.Packet.acked_seq, a.Packet.cum_ack, a.Packet.recv_bytes)
            | Packet.Data _ -> ())
      in
      let m = Ref_rcv.create () in
      (* [cursor] is the next in-order sequence of the arrival stream. *)
      let cursor = ref 0 in
      let deliver i op =
        let seq =
          match op with
          | Next ->
            incr cursor;
            !cursor - 1
          | Back k -> max 0 (!cursor - 1 - k)
          | Fill -> m.Ref_rcv.cum_ack + 1
          | Skip k ->
            cursor := !cursor + k + 1;
            !cursor - 1
          | Far k -> !cursor + k
        in
        let size = 100 + (seq mod 7) in
        let want = Ref_rcv.on_data m seq size in
        last := None;
        Receiver.on_packet r
          (Packet.data ~flow:1 ~seq ~size ~now:0. ~retx:false);
        if !last <> Some want then
          QCheck.Test.fail_reportf "op %d (%s, seq %d): ack differs" i
            (show_rcv_op op) seq;
        if Receiver.cum_ack r <> m.Ref_rcv.cum_ack then
          QCheck.Test.fail_reportf "op %d: cum_ack %d vs %d" i
            (Receiver.cum_ack r) m.Ref_rcv.cum_ack;
        if Receiver.goodput_bytes r <> m.Ref_rcv.goodput then
          QCheck.Test.fail_reportf "op %d: goodput differs" i
      in
      List.iteri deliver ops;
      Receiver.received_pkts r = List.length ops)

(* ------------------------------------------------------------------ *)
(* Rate pacer *)

let test_pacer_spacing () =
  let engine = Engine.create () in
  let sends = ref [] in
  let pacer =
    Rate_pacer.create engine ~rate:(Units.mbps 12.) ~send:(fun () ->
        sends := Engine.now engine :: !sends;
        if List.length !sends < 4 then Some 1500 else None)
  in
  Rate_pacer.start pacer;
  Engine.run engine;
  let times = List.rev !sends in
  Alcotest.(check int) "four sends" 4 (List.length times);
  (* 1500 B at 12 Mbps = 1 ms between sends. *)
  (match times with
  | a :: b :: c :: _ ->
    check_float "spacing" 0.001 (b -. a);
    check_float "spacing" 0.001 (c -. b)
  | _ -> ());
  (* Declined send paused the pacer; kick resumes it. *)
  let before = List.length !sends in
  Rate_pacer.kick pacer;
  Engine.run engine;
  Alcotest.(check int) "kick resumes" (before + 1) (List.length !sends)

let test_pacer_rate_change () =
  let engine = Engine.create () in
  let sends = ref [] in
  let pacer = ref None in
  let p =
    Rate_pacer.create engine ~rate:(Units.mbps 12.) ~send:(fun () ->
        sends := Engine.now engine :: !sends;
        (match !pacer with
        | Some p when List.length !sends = 2 ->
          Rate_pacer.set_rate p (Units.mbps 120.)
        | _ -> ());
        if List.length !sends < 4 then Some 1500 else None)
  in
  pacer := Some p;
  Rate_pacer.start p;
  Engine.run engine;
  match List.rev !sends with
  | [ _; b; c; d ] ->
    check_float "new spacing" 0.0001 (c -. b);
    check_float "new spacing" 0.0001 (d -. c)
  | _ -> Alcotest.fail "expected 4 sends"

let test_pacer_stop () =
  let engine = Engine.create () in
  let count = ref 0 in
  let p =
    Rate_pacer.create engine ~rate:(Units.mbps 12.) ~send:(fun () ->
        incr count;
        Some 1500)
  in
  Rate_pacer.start p;
  Engine.run ~until:0.0005 engine;
  Rate_pacer.stop p;
  let n = !count in
  Engine.run ~until:1. engine;
  Alcotest.(check int) "no sends after stop" n !count

(* ------------------------------------------------------------------ *)
(* Scoreboard *)

let ack ?(cum = -1) seq =
  Packet.
    {
      acked_seq = seq;
      cum_ack = cum;
      recv_bytes = 0;
      data_sent_at = 0.;
      data_retx = false;
    }

let test_scoreboard_basics () =
  let sb = Scoreboard.create () in
  (match Scoreboard.fresh_seq sb with
  | Some 0 -> ()
  | _ -> Alcotest.fail "first seq should be 0");
  Scoreboard.record_send sb 0 ~now:0.;
  Alcotest.(check int) "inflight" 1 (Scoreboard.inflight sb);
  let newly = Scoreboard.on_ack sb (ack ~cum:0 0) in
  Alcotest.(check (list int)) "newly delivered" [ 0 ] newly;
  Alcotest.(check int) "inflight drains" 0 (Scoreboard.inflight sb);
  Alcotest.(check int) "high ack" 0 (Scoreboard.high_ack sb)

let test_scoreboard_cum_covers_lost_acks () =
  let sb = Scoreboard.create () in
  for seq = 0 to 4 do
    ignore (Scoreboard.fresh_seq sb);
    Scoreboard.record_send sb seq ~now:0.
  done;
  (* Acks for 0-3 lost; the ack for 4 carries cum=4. *)
  let newly = Scoreboard.on_ack sb (ack ~cum:4 4) in
  Alcotest.(check (list int)) "cum covers holes" [ 4; 0; 1; 2; 3 ] newly;
  Alcotest.(check int) "all acked" 5 (Scoreboard.acked_pkts sb)

let test_scoreboard_gap_detection () =
  let sb = Scoreboard.create () in
  for seq = 0 to 5 do
    ignore (Scoreboard.fresh_seq sb);
    Scoreboard.record_send sb seq ~now:0.
  done;
  (* seq 0 lost; 1..4 sacked. *)
  List.iter (fun s -> ignore (Scoreboard.on_ack sb (ack s))) [ 1; 2; 3; 4 ];
  let lost = Scoreboard.detect_losses sb ~now:10. ~min_age:0.1 in
  Alcotest.(check (list int)) "hole declared" [ 0 ] lost;
  Alcotest.(check (option int)) "queued for retx" (Some 0)
    (Scoreboard.take_retx sb)

let test_scoreboard_age_guard () =
  let sb = Scoreboard.create () in
  for seq = 0 to 5 do
    ignore (Scoreboard.fresh_seq sb);
    Scoreboard.record_send sb seq ~now:0.
  done;
  List.iter (fun s -> ignore (Scoreboard.on_ack sb (ack s))) [ 1; 2; 3; 4 ];
  ignore (Scoreboard.detect_losses sb ~now:1. ~min_age:0.1);
  (* Retransmit seq 0 at t=1; it must NOT be re-marked lost while young. *)
  (match Scoreboard.take_retx sb with
  | Some 0 -> Scoreboard.record_send sb 0 ~now:1.
  | _ -> Alcotest.fail "expected retx of 0");
  let lost = Scoreboard.detect_losses sb ~now:1.01 ~min_age:0.1 in
  Alcotest.(check (list int)) "young retx spared" [] lost;
  let lost = Scoreboard.detect_losses sb ~now:2. ~min_age:0.1 in
  Alcotest.(check (list int)) "old retx re-declared" [ 0 ] lost

let test_scoreboard_take_retx_skips_delivered () =
  let sb = Scoreboard.create () in
  for seq = 0 to 5 do
    ignore (Scoreboard.fresh_seq sb);
    Scoreboard.record_send sb seq ~now:0.
  done;
  List.iter (fun s -> ignore (Scoreboard.on_ack sb (ack s))) [ 1; 2; 3; 4 ];
  ignore (Scoreboard.detect_losses sb ~now:10. ~min_age:0.1);
  (* The original arrives very late, before the retransmission went out. *)
  ignore (Scoreboard.on_ack sb (ack ~cum:4 0));
  Alcotest.(check (option int)) "stale retx skipped" None
    (Scoreboard.take_retx sb)

let test_scoreboard_limit_and_complete () =
  let sb = Scoreboard.create () in
  Scoreboard.limit_pkts sb 2;
  (match (Scoreboard.fresh_seq sb, Scoreboard.fresh_seq sb) with
  | Some 0, Some 1 -> ()
  | _ -> Alcotest.fail "two seqs expected");
  Alcotest.(check (option int)) "limit reached" None (Scoreboard.fresh_seq sb);
  Alcotest.(check bool) "incomplete" false (Scoreboard.complete sb);
  Scoreboard.record_send sb 0 ~now:0.;
  Scoreboard.record_send sb 1 ~now:0.;
  ignore (Scoreboard.on_ack sb (ack ~cum:1 1));
  Alcotest.(check bool) "complete" true (Scoreboard.complete sb)

let test_scoreboard_sweep_stale () =
  let sb = Scoreboard.create () in
  ignore (Scoreboard.fresh_seq sb);
  Scoreboard.record_send sb 0 ~now:0.;
  Alcotest.(check (list int)) "young spared" []
    (Scoreboard.sweep_stale sb ~now:0.05 ~min_age:0.1);
  Alcotest.(check (list int)) "stale swept" [ 0 ]
    (Scoreboard.sweep_stale sb ~now:1. ~min_age:0.1);
  Alcotest.(check bool) "queued" true (Scoreboard.has_retx sb)

let prop_scoreboard_never_negative_inflight =
  QCheck.Test.make ~name:"scoreboard inflight never negative" ~count:200
    QCheck.(list (pair (int_range 0 20) bool))
    (fun events ->
      let sb = Scoreboard.create () in
      List.iter
        (fun (seq, is_send) ->
          if is_send then Scoreboard.record_send sb seq ~now:0.
          else ignore (Scoreboard.on_ack sb (ack seq)))
        events;
      Scoreboard.inflight sb >= 0)

(* Reference scoreboard for the differential test: the byte-scan loss
   detection the candidate heap replaced. [detect_losses] walks every
   sequence from the lowest to [highest_sacked - dupthresh] and queues
   the lost ones in walk order (reversed for [~highest_first]). *)
module Ref_sb = struct
  type t = {
    mutable high_ack : int;
    mutable highest_sacked : int;
    kind : int array;  (* 0 untracked, 1 outstanding, 2 SACKed *)
    queued : bool array;
    sent_at : float array;
    mutable inflight : int;
    retx_q : int Queue.t;
    mutable next : int;
  }

  let dupthresh = 3

  let create cap =
    {
      high_ack = -1;
      highest_sacked = -1;
      kind = Array.make cap 0;
      queued = Array.make cap false;
      sent_at = Array.make cap 0.;
      inflight = 0;
      retx_q = Queue.create ();
      next = 0;
    }

  let fresh_seq t =
    t.next <- t.next + 1;
    t.next - 1

  let delivered t seq = seq <= t.high_ack || t.kind.(seq) = 2

  let remove_outstanding t seq =
    if t.kind.(seq) = 1 then begin
      t.kind.(seq) <- 0;
      t.inflight <- t.inflight - 1
    end

  let record_send t seq ~now =
    t.sent_at.(seq) <- now;
    if (not (delivered t seq)) && t.kind.(seq) <> 1 then begin
      t.kind.(seq) <- 1;
      t.inflight <- t.inflight + 1
    end

  let on_ack t (a : Packet.ack) =
    let newly = ref [] in
    let seq = a.Packet.acked_seq in
    if seq > t.high_ack && t.kind.(seq) <> 2 then begin
      newly := seq :: !newly;
      remove_outstanding t seq;
      t.kind.(seq) <- 2;
      t.highest_sacked <- max t.highest_sacked seq
    end;
    for s = t.high_ack + 1 to a.Packet.cum_ack do
      if t.kind.(s) = 2 then t.kind.(s) <- 0
      else begin
        newly := s :: !newly;
        remove_outstanding t s
      end
    done;
    t.high_ack <- max t.high_ack a.Packet.cum_ack;
    List.rev !newly

  let queue_retx t seq =
    if not t.queued.(seq) then begin
      t.queued.(seq) <- true;
      Queue.push seq t.retx_q
    end

  let due t seq ~now ~min_age =
    t.kind.(seq) = 1 && now -. t.sent_at.(seq) >= min_age

  let detect_losses ?(highest_first = false) t ~now ~min_age =
    let lost = ref [] in
    for seq = 0 to min (t.highest_sacked - dupthresh) (t.next - 1) do
      if due t seq ~now ~min_age then begin
        remove_outstanding t seq;
        lost := seq :: !lost
      end
    done;
    let lost = List.rev !lost in
    List.iter (queue_retx t) (if highest_first then List.rev lost else lost);
    lost

  let mark_lost t seq ~now ~min_age =
    due t seq ~now ~min_age
    && begin
      remove_outstanding t seq;
      queue_retx t seq;
      true
    end

  let sweep_stale t ~now ~min_age =
    let stale = ref [] in
    for seq = 0 to t.next - 1 do
      if due t seq ~now ~min_age then stale := seq :: !stale
    done;
    List.iter
      (fun seq ->
        remove_outstanding t seq;
        queue_retx t seq)
      !stale;
    List.rev !stale

  let go_back_n t =
    for seq = 0 to t.next - 1 do
      if t.kind.(seq) = 1 then begin
        remove_outstanding t seq;
        queue_retx t seq
      end
    done

  let rec take_retx t =
    match Queue.take_opt t.retx_q with
    | None -> None
    | Some seq ->
      t.queued.(seq) <- false;
      if delivered t seq then take_retx t else Some seq
end

type sb_op =
  | Send
  | Retx
  | Sack of int
  | Sack_recent of int
  | Cum of int * int
  | Cum_lag of int
  | Mark of int * float
  | Sweep of float
  | Go_back_n
  | Detect of float * bool
  | Tick of float

let show_sb_op = function
  | Send -> "send"
  | Retx -> "retx"
  | Sack k -> Printf.sprintf "sack %d" k
  | Sack_recent k -> Printf.sprintf "sack-recent %d" k
  | Cum (k, c) -> Printf.sprintf "cum %d/%d" k c
  | Cum_lag l -> Printf.sprintf "cum-lag %d" l
  | Mark (k, a) -> Printf.sprintf "mark %d %g" k a
  | Sweep a -> Printf.sprintf "sweep %g" a
  | Go_back_n -> "go-back-n"
  | Detect (a, h) -> Printf.sprintf "detect %g%s" a (if h then " hi" else "")
  | Tick dt -> Printf.sprintf "tick %g" dt

(* Ages and ticks are drawn from a coarse grid so that sends, acks and
   due times often coincide exactly. [min_age] is drawn afresh for each
   call, so it rises and falls across a run. *)
let sb_op_gen =
  let open QCheck.Gen in
  let age = map (fun k -> 0.05 *. float_of_int k) (int_bound 8) in
  let idx = int_bound 1000 in
  frequency
    [
      (5, return Send);
      (3, return Retx);
      (2, map (fun k -> Sack k) idx);
      (4, map (fun k -> Sack_recent k) (int_bound 7));
      (1, map2 (fun k c -> Cum (k, c)) idx idx);
      (1, map2 (fun k a -> Mark (k, a)) idx age);
      (1, map (fun a -> Sweep a) age);
      (1, return Go_back_n);
      (4, map2 (fun a h -> Detect (a, h)) age bool);
      (4, map (fun k -> Tick (0.05 *. float_of_int k)) (int_bound 4));
    ]

(* Long runs: mostly fresh sends, recent SACKs and a cumulative ack that
   trails the send frontier by [Cum_lag l], so the scoreboard's ring
   wraps, slides its base and grows many times within one case, while
   old-sequence acks and marks reach below its base. *)
let sb_long_op_gen =
  let open QCheck.Gen in
  let age = map (fun k -> 0.05 *. float_of_int k) (int_bound 8) in
  let idx = int_bound 5000 in
  frequency
    [
      (10, return Send);
      (6, map (fun k -> Sack_recent k) (int_bound 7));
      (3, map (fun l -> Cum_lag l) (int_range 4 120));
      (2, return Retx);
      (1, map (fun k -> Sack k) idx);
      (1, map2 (fun k a -> Mark (k, a)) idx age);
      (3, map2 (fun a h -> Detect (a, h)) age bool);
      (3, map (fun k -> Tick (0.05 *. float_of_int k)) (int_bound 4));
      (1, map (fun a -> Sweep a) age);
    ]

(* Run [ops] against both scoreboards; [Error] names the first
   divergence. Sequence arguments are taken modulo the number issued;
   [Sack_recent k] acks the k-th most recent one, which keeps the SACK
   frontier sliding over a window of holes and resends. *)
let sb_differential ops =
  let max_ops = List.length ops in
  let sb = Scoreboard.create () and rf = Ref_sb.create (max_ops + 1) in
  let now = ref 0. in
  let pick k = k mod rf.Ref_sb.next in
  let ack ~cum seq =
    Packet.
      {
        acked_seq = seq;
        cum_ack = cum;
        recv_bytes = 0;
        data_sent_at = 0.;
        data_retx = false;
      }
  in
  let step op =
    let issued = rf.Ref_sb.next > 0 in
    let same what pp a b =
      if a = b then Ok ()
      else Error (Printf.sprintf "%s: %s vs %s" what (pp a) (pp b))
    in
    let ints l = String.concat "," (List.map string_of_int l) in
    let opt = function None -> "-" | Some s -> string_of_int s in
    match op with
    | Send ->
      let seq = Ref_sb.fresh_seq rf in
      ignore (Scoreboard.fresh_seq sb);
      Ref_sb.record_send rf seq ~now:!now;
      Scoreboard.record_send sb seq ~now:!now;
      Ok ()
    | Retx ->
      let r = Ref_sb.take_retx rf and s = Scoreboard.take_retx sb in
      Option.iter (fun seq -> Ref_sb.record_send rf seq ~now:!now) r;
      Option.iter (fun seq -> Scoreboard.record_send sb seq ~now:!now) s;
      same "take_retx" opt r s
    | Sack k when issued ->
      let a = ack ~cum:rf.Ref_sb.high_ack (pick k) in
      same "on_ack" ints (Ref_sb.on_ack rf a) (Scoreboard.on_ack sb a)
    | Sack_recent k when issued ->
      let a = ack ~cum:rf.Ref_sb.high_ack (max 0 (rf.Ref_sb.next - 1 - k)) in
      same "on_ack" ints (Ref_sb.on_ack rf a) (Scoreboard.on_ack sb a)
    | Cum_lag l when issued ->
      let seq = max 0 (rf.Ref_sb.next - 1 - l) in
      let a = ack ~cum:seq seq in
      same "on_ack cum-lag" ints (Ref_sb.on_ack rf a) (Scoreboard.on_ack sb a)
    | Cum (k, c) when issued ->
      let a = ack ~cum:(pick c) (pick k) in
      same "on_ack cum" ints (Ref_sb.on_ack rf a) (Scoreboard.on_ack sb a)
    | Mark (k, min_age) when issued ->
      let seq = pick k in
      same "mark_lost" string_of_bool
        (Ref_sb.mark_lost rf seq ~now:!now ~min_age)
        (Scoreboard.mark_lost sb seq ~now:!now ~min_age)
    | Sweep min_age ->
      same "sweep_stale" ints
        (Ref_sb.sweep_stale rf ~now:!now ~min_age)
        (Scoreboard.sweep_stale sb ~now:!now ~min_age)
    | Go_back_n ->
      Ref_sb.go_back_n rf;
      Scoreboard.go_back_n sb;
      Ok ()
    | Detect (min_age, highest_first) ->
      same "detect_losses" ints
        (Ref_sb.detect_losses ~highest_first rf ~now:!now ~min_age)
        (Scoreboard.detect_losses ~highest_first sb ~now:!now ~min_age)
    | Tick dt ->
      now := !now +. dt;
      Ok ()
    | Sack _ | Sack_recent _ | Cum _ | Cum_lag _ | Mark _ -> Ok ()
  in
  let rec go i = function
    | [] ->
      let rec drain () =
        match (Ref_sb.take_retx rf, Scoreboard.take_retx sb) with
        | None, None -> Ok ()
        | r, s when r = s -> drain ()
        | _ -> Error "final take_retx drain order"
      in
      drain ()
    | op :: rest -> (
      match step op with
      | Error e -> Error (Printf.sprintf "op %d (%s): %s" i (show_sb_op op) e)
      | Ok () when Ref_sb.(rf.inflight) <> Scoreboard.inflight sb ->
        Error (Printf.sprintf "op %d (%s): inflight" i (show_sb_op op))
      | Ok () -> go (i + 1) rest)
  in
  go 0 ops

let prop_scoreboard_matches_byte_scan =
  QCheck.Test.make ~name:"heap detection matches byte scan" ~count:500
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map show_sb_op ops))
       ~shrink:QCheck.Shrink.list
       QCheck.Gen.(
         frequency
           [
             (4, list_size (int_range 1 300) sb_op_gen);
             (1, list_size (int_range 2000 3000) sb_long_op_gen);
           ]))
    (fun ops ->
      match sb_differential ops with
      | Ok () -> true
      | Error e -> QCheck.Test.fail_report e)

(* The stale-key path: a candidate resent after go-back-N keeps its heap
   entry from the first send, so the pop must re-key it, not declare it
   lost on the old send time. *)
let test_scoreboard_resent_candidate () =
  let ops =
    [ Send; Send; Send; Send; Send; Sack 1; Sack 2; Sack 3; Sack 4 ]
    @ [ Tick 0.2; Go_back_n; Retx; Tick 0.1; Detect (0.15, false) ]
    @ [ Tick 0.1; Detect (0.15, false) ]
  in
  (match sb_differential ops with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let sb = Scoreboard.create () in
  for seq = 0 to 4 do
    ignore (Scoreboard.fresh_seq sb);
    Scoreboard.record_send sb seq ~now:0.
  done;
  List.iter (fun s -> ignore (Scoreboard.on_ack sb (ack s))) [ 1; 2; 3; 4 ];
  Scoreboard.go_back_n sb;
  Alcotest.(check int) "nothing in flight" 0 (Scoreboard.inflight sb);
  Alcotest.(check (option int)) "requeued" (Some 0) (Scoreboard.take_retx sb);
  Scoreboard.record_send sb 0 ~now:0.2;
  Alcotest.(check (list int)) "young resend spared" []
    (Scoreboard.detect_losses sb ~now:0.3 ~min_age:0.15);
  Alcotest.(check (list int)) "old resend declared" [ 0 ]
    (Scoreboard.detect_losses sb ~now:0.4 ~min_age:0.15)

(* A retransmitted low sequence is due after fresher, higher ones: the
   send-time order of the candidate heap is then not sequence order,
   and [detect_losses] must still return ascending sequences and queue
   them in the order asked for. *)
let test_scoreboard_retx_interleaved () =
  let run ~highest_first =
    let sb = Scoreboard.create () in
    let send seq now =
      if seq >= Scoreboard.next_seq sb then ignore (Scoreboard.fresh_seq sb);
      Scoreboard.record_send sb seq ~now
    in
    for seq = 0 to 9 do
      send seq (0.1 *. float_of_int seq)
    done;
    for s = 1 to 9 do
      ignore (Scoreboard.on_ack sb (ack s))
    done;
    Alcotest.(check (list int)) "first loss" [ 0 ]
      (Scoreboard.detect_losses ~highest_first sb ~now:1. ~min_age:0.5);
    send 10 1.0;
    send 11 1.1;
    (match Scoreboard.take_retx sb with
    | Some 0 -> send 0 1.2
    | _ -> Alcotest.fail "expected retx of 0");
    List.iter (fun s -> send s 1.3) [ 12; 13; 14 ];
    List.iter (fun s -> ignore (Scoreboard.on_ack sb (ack s))) [ 12; 13; 14 ];
    let lost =
      Scoreboard.detect_losses ~highest_first sb ~now:2. ~min_age:0.5
    in
    let queued = List.init 3 (fun _ -> Scoreboard.take_retx sb) in
    (lost, queued)
  in
  let lost, queued = run ~highest_first:false in
  Alcotest.(check (list int)) "ascending" [ 0; 10; 11 ] lost;
  Alcotest.(check (list (option int))) "queued lowest first"
    [ Some 0; Some 10; Some 11 ] queued;
  let lost, queued = run ~highest_first:true in
  Alcotest.(check (list int)) "ascending (highest first)" [ 0; 10; 11 ] lost;
  Alcotest.(check (list (option int))) "queued highest first"
    [ Some 11; Some 10; Some 0 ] queued

let q = QCheck_alcotest.to_alcotest

let suites =
  [
    ( "net.packet",
      [
        Alcotest.test_case "data" `Quick test_packet_data;
        Alcotest.test_case "shared data kinds" `Quick test_packet_shared_kinds;
        Alcotest.test_case "ack" `Quick test_packet_ack;
        Alcotest.test_case "ack of ack rejected" `Quick
          test_packet_ack_of_ack_rejected;
        Alcotest.test_case "fresh flow ids" `Quick test_fresh_flow_ids;
        Alcotest.test_case "fresh flow ids across domains" `Quick
          test_fresh_flow_ids_across_domains;
      ] );
    ( "net.link",
      [
        Alcotest.test_case "delivery timing" `Quick test_link_delivery_timing;
        Alcotest.test_case "serialization order" `Quick
          test_link_serializes_in_order;
        Alcotest.test_case "overflow drops" `Quick test_link_queue_overflow_drops;
        Alcotest.test_case "random loss" `Quick test_link_random_loss;
        Alcotest.test_case "dynamic retuning" `Quick test_link_dynamic_bandwidth;
        Alcotest.test_case "bandwidth change mid-transmission" `Quick
          test_link_bandwidth_change_mid_transmission;
        Alcotest.test_case "duplication episode" `Quick
          test_link_duplication_episode;
        Alcotest.test_case "reordering episode" `Quick
          test_link_reordering_episode;
        Alcotest.test_case "bad args" `Quick test_link_rejects_bad_args;
      ] );
    ( "net.delay_line",
      [
        Alcotest.test_case "delay" `Quick test_delay_line;
        Alcotest.test_case "loss" `Quick test_delay_line_loss;
      ] );
    ( "net.receiver",
      [
        Alcotest.test_case "in order" `Quick test_receiver_in_order;
        Alcotest.test_case "out of order" `Quick test_receiver_out_of_order;
        Alcotest.test_case "duplicates" `Quick test_receiver_duplicates;
        q prop_receiver_matches_set_model;
      ] );
    ( "net.rate_pacer",
      [
        Alcotest.test_case "spacing" `Quick test_pacer_spacing;
        Alcotest.test_case "rate change" `Quick test_pacer_rate_change;
        Alcotest.test_case "stop" `Quick test_pacer_stop;
      ] );
    ( "net.scoreboard",
      [
        Alcotest.test_case "basics" `Quick test_scoreboard_basics;
        Alcotest.test_case "cum covers lost acks" `Quick
          test_scoreboard_cum_covers_lost_acks;
        Alcotest.test_case "gap detection" `Quick test_scoreboard_gap_detection;
        Alcotest.test_case "age guard" `Quick test_scoreboard_age_guard;
        Alcotest.test_case "retx skips delivered" `Quick
          test_scoreboard_take_retx_skips_delivered;
        Alcotest.test_case "limit and complete" `Quick
          test_scoreboard_limit_and_complete;
        Alcotest.test_case "sweep stale" `Quick test_scoreboard_sweep_stale;
        Alcotest.test_case "resent candidate re-keyed" `Quick
          test_scoreboard_resent_candidate;
        Alcotest.test_case "retransmission interleaved" `Quick
          test_scoreboard_retx_interleaved;
        q prop_scoreboard_never_negative_inflight;
        q prop_scoreboard_matches_byte_scan;
      ] );
  ]
