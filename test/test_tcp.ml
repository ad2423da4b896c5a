open Pcc_sim
open Pcc_tcp
module Sender = Pcc_net.Sender
module Packet = Pcc_net.Packet

(* ------------------------------------------------------------------ *)
(* Rtt_estimator *)

let test_rtt_first_sample () =
  let e = Rtt_estimator.create () in
  Alcotest.(check (option (float 0.))) "no srtt yet" None (Rtt_estimator.srtt e);
  Rtt_estimator.sample e 0.1;
  Alcotest.(check (option (float 1e-9))) "srtt = sample" (Some 0.1)
    (Rtt_estimator.srtt e);
  (* RFC 6298: RTO = srtt + 4*rttvar = 0.1 + 4*0.05 = 0.3. *)
  Alcotest.(check (float 1e-9)) "rto" 0.3 (Rtt_estimator.rto e)

let test_rtt_smoothing () =
  let e = Rtt_estimator.create () in
  Rtt_estimator.sample e 0.1;
  Rtt_estimator.sample e 0.2;
  (* srtt = 7/8*0.1 + 1/8*0.2 = 0.1125 *)
  Alcotest.(check (option (float 1e-9))) "ewma" (Some 0.1125)
    (Rtt_estimator.srtt e);
  Alcotest.(check (option (float 1e-9))) "min" (Some 0.1)
    (Rtt_estimator.min_rtt e);
  Alcotest.(check (option (float 1e-9))) "max" (Some 0.2)
    (Rtt_estimator.max_rtt e)

let test_rtt_min_rto_floor () =
  let e = Rtt_estimator.create ~min_rto:0.2 () in
  Rtt_estimator.sample e 0.001;
  Rtt_estimator.sample e 0.001;
  Rtt_estimator.sample e 0.001;
  Alcotest.(check (float 1e-9)) "floored" 0.2 (Rtt_estimator.rto e)

let test_rtt_backoff () =
  let e = Rtt_estimator.create () in
  Rtt_estimator.sample e 0.1;
  let r0 = Rtt_estimator.rto e in
  Rtt_estimator.backoff e;
  Alcotest.(check (float 1e-9)) "doubled" (r0 *. 2.) (Rtt_estimator.rto e);
  Rtt_estimator.reset_backoff e;
  Alcotest.(check (float 1e-9)) "reset" r0 (Rtt_estimator.rto e)

(* ------------------------------------------------------------------ *)
(* Variant window arithmetic (unit level) *)

let make_ctx ?(cwnd = 10.) ?(ssthresh = 1000.) ?(srtt = 0.1) ?(min_rtt = 0.05)
    () =
  Variant.
    {
      cwnd;
      ssthresh;
      now = (fun () -> 0.);
      srtt = (fun () -> srtt);
      min_rtt = (fun () -> min_rtt);
      max_rtt = (fun () -> srtt *. 2.);
      latest_rtt = (fun () -> srtt);
      mss = Units.mss;
    }

let test_newreno_slow_start () =
  let v = Newreno.make () in
  let ctx = make_ctx ~cwnd:2. () in
  v.Variant.on_ack ctx ~newly_acked:2;
  Alcotest.(check (float 1e-9)) "ss +2" 4. ctx.Variant.cwnd

let test_newreno_congestion_avoidance () =
  let v = Newreno.make () in
  let ctx = make_ctx ~cwnd:10. ~ssthresh:5. () in
  v.Variant.on_ack ctx ~newly_acked:1;
  Alcotest.(check (float 1e-9)) "ca +1/w" 10.1 ctx.Variant.cwnd

let test_newreno_halves_on_loss () =
  let v = Newreno.make () in
  let ctx = make_ctx ~cwnd:20. () in
  v.Variant.on_loss ctx;
  Alcotest.(check (float 1e-9)) "halved" 10. ctx.Variant.cwnd;
  Alcotest.(check (float 1e-9)) "ssthresh" 10. ctx.Variant.ssthresh

let test_min_cwnd_floor () =
  let v = Newreno.make () in
  let ctx = make_ctx ~cwnd:2. () in
  v.Variant.on_loss ctx;
  v.Variant.on_loss ctx;
  Alcotest.(check bool) "floor holds" true (ctx.Variant.cwnd >= Variant.min_cwnd)

let test_cubic_beta_reduction () =
  let v = Cubic.make () in
  let ctx = make_ctx ~cwnd:100. ~ssthresh:50. () in
  v.Variant.on_loss ctx;
  Alcotest.(check (float 1e-6)) "beta=0.7" 70. ctx.Variant.cwnd

let test_cubic_growth_accelerates_past_wmax () =
  let now = ref 0. in
  let ctx =
    Variant.
      {
        cwnd = 100.;
        ssthresh = 50.;
        now = (fun () -> !now);
        srtt = (fun () -> 0.1);
        min_rtt = (fun () -> 0.05);
        max_rtt = (fun () -> 0.2);
        latest_rtt = (fun () -> 0.1);
        mss = Units.mss;
      }
  in
  let v = Cubic.make () in
  v.Variant.on_loss ctx;
  let after_loss = ctx.Variant.cwnd in
  (* Ack steadily for simulated seconds; cwnd should recover toward and
     then beyond the previous maximum (convex region). *)
  (* K = cbrt(w_max*(1-beta)/C) = cbrt(75) ~ 4.2 s: give the cubic 8 s. *)
  for i = 1 to 800 do
    now := float_of_int i *. 0.01;
    v.Variant.on_ack ctx ~newly_acked:1
  done;
  Alcotest.(check bool) "recovered past w_max" true (ctx.Variant.cwnd > 100.);
  Alcotest.(check bool) "grew" true (ctx.Variant.cwnd > after_loss)

let test_hybla_rho_scaling () =
  let v = Hybla.make () in
  (* Long-RTT connection in congestion avoidance: per-ack growth is
     rho^2/cwnd, much faster than Reno's 1/cwnd. *)
  let ctx = make_ctx ~cwnd:10. ~ssthresh:5. ~srtt:0.25 () in
  v.Variant.on_ack ctx ~newly_acked:1;
  let hybla_growth = ctx.Variant.cwnd -. 10. in
  let reno = Newreno.make () in
  let ctx2 = make_ctx ~cwnd:10. ~ssthresh:5. ~srtt:0.25 () in
  reno.Variant.on_ack ctx2 ~newly_acked:1;
  let reno_growth = ctx2.Variant.cwnd -. 10. in
  (* rho = 0.25/0.025 = 10, so growth should be ~100x Reno's. *)
  Alcotest.(check bool) "rho^2 scaling" true
    (hybla_growth > 50. *. reno_growth)

let test_hybla_short_rtt_behaves_like_reno () =
  let v = Hybla.make () in
  let ctx = make_ctx ~cwnd:10. ~ssthresh:5. ~srtt:0.02 () in
  v.Variant.on_ack ctx ~newly_acked:1;
  (* rho clamps at 1: growth = 1/cwnd. *)
  Alcotest.(check (float 1e-9)) "reno-like" 10.1 ctx.Variant.cwnd

let test_illinois_alpha_depends_on_delay () =
  (* Low queueing delay: aggressive alpha; high delay: conservative. *)
  let run srtt =
    let v = Illinois.make () in
    let ctx = make_ctx ~cwnd:10. ~ssthresh:5. ~srtt ~min_rtt:0.05 () in
    (* Feed several acks so the internal delay average forms. *)
    for _ = 1 to 20 do
      v.Variant.on_ack ctx ~newly_acked:1
    done;
    ctx.Variant.cwnd
  in
  let low_delay = run 0.0505 in
  let high_delay = run 0.099 in
  Alcotest.(check bool) "faster growth at low delay" true
    (low_delay > high_delay)

let test_illinois_beta_depends_on_delay () =
  let run srtt =
    let v = Illinois.make () in
    let ctx = make_ctx ~cwnd:100. ~ssthresh:5. ~srtt ~min_rtt:0.05 () in
    for _ = 1 to 20 do
      v.Variant.on_ack ctx ~newly_acked:1
    done;
    let before = ctx.Variant.cwnd in
    v.Variant.on_loss ctx;
    ctx.Variant.cwnd /. before
  in
  let keep_low_delay = run 0.0505 in
  let keep_high_delay = run 0.0995 in
  (* With no queueing evidence the backoff is mild (1/8); deep queues cut
     up to 1/2. *)
  Alcotest.(check bool) "mild cut at low delay" true
    (keep_low_delay > keep_high_delay);
  Alcotest.(check bool) "low-delay cut ~ 12.5%" true (keep_low_delay > 0.85)

let test_vegas_holds_at_target () =
  let v = Vegas.make () in
  (* diff = cwnd*(1 - base/srtt) = 10*(1-0.05/0.0714) = 3 packets: within
     [alpha=2, beta=4] the window should hold. *)
  let now = ref 0. in
  let ctx =
    Variant.
      {
        cwnd = 10.;
        ssthresh = 5.;
        now = (fun () -> !now);
        srtt = (fun () -> 0.0714);
        min_rtt = (fun () -> 0.05);
        max_rtt = (fun () -> 0.08);
        latest_rtt = (fun () -> 0.0714);
        mss = Units.mss;
      }
  in
  for i = 1 to 50 do
    now := float_of_int i *. 0.08;
    v.Variant.on_ack ctx ~newly_acked:1
  done;
  Alcotest.(check (float 0.01)) "holds" 10. ctx.Variant.cwnd

let test_vegas_backs_off_queueing () =
  let v = Vegas.make () in
  let now = ref 0. in
  (* Large diff: srtt far above base. *)
  let ctx =
    Variant.
      {
        cwnd = 20.;
        ssthresh = 5.;
        now = (fun () -> !now);
        srtt = (fun () -> 0.1);
        min_rtt = (fun () -> 0.05);
        max_rtt = (fun () -> 0.12);
        latest_rtt = (fun () -> 0.1);
        mss = Units.mss;
      }
  in
  for i = 1 to 10 do
    now := float_of_int i *. 0.2;
    v.Variant.on_ack ctx ~newly_acked:1
  done;
  Alcotest.(check bool) "decreased" true (ctx.Variant.cwnd < 20.)

let test_bic_binary_search () =
  let v = Bic.make () in
  let ctx = make_ctx ~cwnd:100. ~ssthresh:50. () in
  v.Variant.on_loss ctx;
  Alcotest.(check (float 1e-6)) "beta cut to 80" 80. ctx.Variant.cwnd;
  (* Growth from 80 toward the midpoint (90) decelerates as it nears. *)
  let g1 =
    let before = ctx.Variant.cwnd in
    v.Variant.on_ack ctx ~newly_acked:1;
    ctx.Variant.cwnd -. before
  in
  for _ = 1 to 200 do
    v.Variant.on_ack ctx ~newly_acked:1
  done;
  let g2 =
    let before = ctx.Variant.cwnd in
    v.Variant.on_ack ctx ~newly_acked:1;
    ctx.Variant.cwnd -. before
  in
  Alcotest.(check bool) "decelerates near target" true (g1 > g2)

let test_westwood_bandwidth_based_cut () =
  let now = ref 0. in
  let ctx =
    Variant.
      {
        cwnd = 100.;
        ssthresh = 50.;
        now = (fun () -> !now);
        srtt = (fun () -> 0.1);
        min_rtt = (fun () -> 0.1);
        max_rtt = (fun () -> 0.12);
        latest_rtt = (fun () -> 0.1);
        mss = Units.mss;
      }
  in
  let v = Westwood.make () in
  (* Feed acks at ~1000 pkts/s so BWE ~ 1000 pkts/s, BWE*min_rtt ~ 100. *)
  for i = 1 to 500 do
    now := float_of_int i *. 0.001;
    v.Variant.on_ack ctx ~newly_acked:1
  done;
  v.Variant.on_loss ctx;
  (* Despite the loss, the estimated pipe supports ~100 packets: the cut
     should keep cwnd far above Reno's 50. *)
  Alcotest.(check bool) "keeps estimated pipe" true (ctx.Variant.cwnd > 70.)

let test_fast_holds_alpha_packets_queued () =
  (* At the fixed point, baseRTT/RTT*w + alpha = w, i.e. the queue holds
     exactly alpha packets: with base 50 ms and alpha 20, a pipe of
     base*C packets, w settles at pipe + 20. *)
  let now = ref 0. in
  let w = ref 100. in
  let base = 0.05 in
  let pipe = 100. in
  let ctx =
    Variant.
      {
        cwnd = !w;
        ssthresh = 5.;
        now = (fun () -> !now);
        (* Self-consistent queueing: RTT grows with the standing queue. *)
        srtt = (fun () -> base *. Float.max 1. (!w /. pipe));
        min_rtt = (fun () -> base);
        max_rtt = (fun () -> 0.2);
        latest_rtt = (fun () -> base);
        mss = Units.mss;
      }
  in
  let v = Fast.make ~alpha:20. () in
  for i = 1 to 200 do
    now := float_of_int i *. 0.1;
    ctx.Variant.cwnd <- ctx.Variant.cwnd;
    v.Variant.on_ack ctx ~newly_acked:1;
    w := ctx.Variant.cwnd
  done;
  Alcotest.(check bool) "settles near pipe + alpha" true
    (Float.abs (ctx.Variant.cwnd -. (pipe +. 20.)) < 5.)

let test_fast_misled_by_baseline_misestimate () =
  (* §5: if baseRTT is overestimated (measured during queueing), FAST
     keeps inflating the window — the hardwired assumption failing. *)
  let now = ref 0. in
  let ctx =
    Variant.
      {
        cwnd = 100.;
        ssthresh = 5.;
        now = (fun () -> !now);
        srtt = (fun () -> 0.1);
        min_rtt = (fun () -> 0.1);  (* believes there is no queueing *)
        max_rtt = (fun () -> 0.2);
        latest_rtt = (fun () -> 0.1);
        mss = Units.mss;
      }
  in
  let v = Fast.make ~alpha:20. () in
  for i = 1 to 50 do
    now := float_of_int i *. 0.11;
    v.Variant.on_ack ctx ~newly_acked:1
  done;
  Alcotest.(check bool) "window inflates without bound" true
    (ctx.Variant.cwnd > 500.)

let test_highspeed_scales_with_window () =
  let v = Highspeed.make () in
  let small = make_ctx ~cwnd:30. ~ssthresh:5. () in
  v.Variant.on_ack small ~newly_acked:1;
  Alcotest.(check (float 1e-6)) "reno below low_window" (30. +. (1. /. 30.))
    small.Variant.cwnd;
  let big = make_ctx ~cwnd:10000. ~ssthresh:5. () in
  let before = big.Variant.cwnd in
  v.Variant.on_ack big ~newly_acked:1;
  let growth_big = (big.Variant.cwnd -. before) *. before in
  (* a(w) for w=10000 is ~tens: far above Reno's a=1. *)
  Alcotest.(check bool) "superlinear additive step" true (growth_big > 10.);
  v.Variant.on_loss big;
  Alcotest.(check bool) "gentler backoff at scale" true
    (big.Variant.cwnd > 0.6 *. before)

let test_registry () =
  Alcotest.(check int) "nine variants" 9 (List.length Registry.variants);
  List.iter
    (fun name ->
      let v = Registry.variant name in
      Alcotest.(check string) "name matches" name v.Variant.name)
    Registry.variants;
  Alcotest.(check bool) "unknown rejected" true
    (try
       ignore (Registry.variant "quic");
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Tcp_sender integration on a loopback harness *)

(* Minimal harness: a bottleneck link into a receiver, acks return after a
   fixed reverse delay. *)
let harness ?(bandwidth = Units.mbps 10.) ?(rtt = 0.1) ?(loss = 0.)
    ?(buffer = 100 * Units.mss) ?size ?on_complete engine name =
  let open Pcc_net in
  let rng = Rng.create 99 in
  let q = Queue_disc.droptail_bytes ~capacity:buffer () in
  let link =
    Link.create engine ~loss ~rng ~bandwidth ~delay:(rtt /. 2.) ~queue:q ()
  in
  let rev = Delay_line.create engine ~delay:(rtt /. 2.) () in
  let receiver = Receiver.create engine ~ack_out:(Delay_line.send rev) in
  Link.set_receiver link (Receiver.on_packet receiver);
  let cfg = Tcp_sender.default_config (Registry.variant name) in
  let cfg = { cfg with Tcp_sender.initial_rtt = rtt } in
  let t = Tcp_sender.create engine cfg ?size ?on_complete ~out:(Link.send link) () in
  let s = Tcp_sender.sender t in
  Delay_line.set_receiver rev (fun pkt ->
      match pkt.Packet.kind with
      | Packet.Ack a -> s.Sender.handle_ack a
      | Packet.Data _ -> ());
  (t, s, receiver, link)

let test_tcp_fills_clean_link () =
  let engine = Engine.create () in
  let t, s, receiver, _ = harness engine "newreno" in
  s.Sender.start ();
  Engine.run ~until:30. engine;
  let tput =
    float_of_int (Pcc_net.Receiver.goodput_bytes receiver * 8) /. 30.
  in
  Alcotest.(check bool) ""
    true
    (tput > 0.85 *. Units.mbps 10.);
  Alcotest.(check bool) "srtt learned" true (Tcp_sender.srtt t <> None)

let test_tcp_slow_start_doubles () =
  let engine = Engine.create () in
  let t, s, _, _ = harness ~bandwidth:(Units.mbps 100.) engine "newreno" in
  s.Sender.start ();
  (* After ~3 RTTs of slow start from cwnd 2, cwnd should be ~16. *)
  Engine.run ~until:0.35 engine;
  Alcotest.(check bool) "exponential growth" true (Tcp_sender.cwnd t >= 8.)

let test_tcp_fast_retransmit_on_loss () =
  let engine = Engine.create () in
  let t, s, _, _ = harness ~loss:0.02 engine "newreno" in
  s.Sender.start ();
  Engine.run ~until:20. engine;
  Alcotest.(check bool) "fast retransmits happened" true
    (Tcp_sender.fast_retransmits t > 0);
  (* SACK recovery should avoid constant RTOs on a mildly lossy link. *)
  Alcotest.(check bool) "few timeouts" true (Tcp_sender.timeouts t < 10)

let test_tcp_finite_transfer_completes () =
  let engine = Engine.create () in
  let done_at = ref None in
  let size = 50 * Units.mss in
  let t, s, receiver, _ =
    harness ~loss:0.05 ~size ~on_complete:(fun at -> done_at := Some at)
      engine "newreno"
  in
  ignore t;
  s.Sender.start ();
  Engine.run ~until:60. engine;
  Alcotest.(check bool) "completed despite loss" true (!done_at <> None);
  Alcotest.(check bool) "receiver got all bytes" true
    (Pcc_net.Receiver.goodput_bytes receiver >= size)

let test_tcp_timeout_on_blackhole () =
  let engine = Engine.create () in
  let open Pcc_net in
  let rng = Rng.create 1 in
  (* Forward loss of 100%: every transmission times out. *)
  let q = Queue_disc.droptail_bytes ~capacity:(100 * Units.mss) () in
  let link =
    Link.create engine ~loss:1.0 ~rng ~bandwidth:(Units.mbps 10.) ~delay:0.05
      ~queue:q ()
  in
  Link.set_receiver link (fun _ -> ());
  let cfg = Tcp_sender.default_config (Newreno.make ()) in
  let t = Tcp_sender.create engine cfg ~out:(Link.send link) () in
  (Tcp_sender.sender t).Sender.start ();
  Engine.run ~until:10. engine;
  Alcotest.(check bool) "rto fired repeatedly" true (Tcp_sender.timeouts t >= 2);
  Alcotest.(check bool) "cwnd collapsed" true (Tcp_sender.cwnd t <= 2.1)

let test_tcp_pacing_spreads_sends () =
  let engine = Engine.create () in
  let open Pcc_net in
  let sends = ref [] in
  let cfg = Tcp_sender.default_config (Newreno.make ()) in
  let cfg = { cfg with Tcp_sender.pacing = true; initial_rtt = 0.1 } in
  let t =
    Tcp_sender.create engine cfg
      ~out:(fun p -> sends := (Engine.now engine, p) :: !sends)
      ()
  in
  (Tcp_sender.sender t).Sender.start ();
  ignore t;
  Engine.run ~until:0.09 engine;
  (* With cwnd=2 and srtt=0.1, pacing sends one packet every 50 ms instead
     of a 2-packet burst at t=0. *)
  match List.rev !sends with
  | (t0, _) :: (t1, _) :: _ ->
    Alcotest.(check (float 1e-9)) "first immediate" 0. t0;
    Alcotest.(check (float 1e-3)) "second spaced" 0.05 t1
  | _ -> Alcotest.fail "expected at least 2 sends"

(* A ten-packet transfer whose acks the test delivers by hand; returns
   the sender and the retransmitted sequences in wire order. *)
let retx_harness engine =
  let retx = ref [] in
  let cfg = Tcp_sender.default_config (Newreno.make ()) in
  let cfg = { cfg with Tcp_sender.init_cwnd = 10.; initial_rtt = 0.1 } in
  let t =
    Tcp_sender.create engine cfg ~size:(10 * Units.mss)
      ~out:(fun p ->
        match p.Packet.kind with
        | Packet.Data { retx = true } -> retx := p.Packet.seq :: !retx
        | Packet.Data _ | Packet.Ack _ -> ())
      ()
  in
  let s = Tcp_sender.sender t in
  (* Karn's rule keeps these acks from sampling the RTT, so the loss age
     guard stays at 0.8 x [initial_rtt]. *)
  let acks_at at l =
    ignore
      (Engine.schedule engine ~at (fun () ->
           List.iter
             (fun (seq, cum) ->
               s.Sender.handle_ack
                 Packet.
                   {
                     acked_seq = seq;
                     cum_ack = cum;
                     recv_bytes = 0;
                     data_sent_at = 0.;
                     data_retx = true;
                   })
             l))
  in
  s.Sender.start ();
  (t, acks_at, fun () -> List.rev !retx)

let test_tcp_fast_retransmit_highest_first () =
  let engine = Engine.create () in
  let t, acks_at, retx = retx_harness engine in
  (* Holes at 1, 3 and 5 with three SACKs above each. At 50 ms they are
     too young for the age guard; the ack at 100 ms declares all three. *)
  acks_at 0.05 [ (0, 0); (2, 0); (4, 0); (6, 0); (7, 0); (8, 0) ];
  acks_at 0.1 [ (9, 0) ];
  Engine.run ~until:0.2 engine;
  Alcotest.(check int) "one recovery" 1 (Tcp_sender.fast_retransmits t);
  Alcotest.(check (list int)) "highest first" [ 5; 3; 1 ] (retx ())

let test_tcp_go_back_n_lowest_first () =
  let engine = Engine.create () in
  let t, acks_at, retx = retx_harness engine in
  (* Two SACKs leave every hole short of dupthresh, so only the RTO (1 s
     after the last ack re-armed it) recovers. Afterwards cwnd is 2; the
     acks for 0 and 1, back before the age guard could flag either
     resend, open it to 4. *)
  acks_at 0.05 [ (4, -1); (6, -1) ];
  acks_at 1.1 [ (0, 0); (1, 1) ];
  Engine.run ~until:1.15 engine;
  Alcotest.(check int) "one timeout" 1 (Tcp_sender.timeouts t);
  Alcotest.(check (list int)) "lowest first" [ 0; 1; 2; 3; 5; 7 ] (retx ())

let suites =
  [
    ( "tcp.rtt_estimator",
      [
        Alcotest.test_case "first sample" `Quick test_rtt_first_sample;
        Alcotest.test_case "smoothing" `Quick test_rtt_smoothing;
        Alcotest.test_case "min rto floor" `Quick test_rtt_min_rto_floor;
        Alcotest.test_case "backoff" `Quick test_rtt_backoff;
      ] );
    ( "tcp.variants",
      [
        Alcotest.test_case "newreno slow start" `Quick test_newreno_slow_start;
        Alcotest.test_case "newreno avoidance" `Quick
          test_newreno_congestion_avoidance;
        Alcotest.test_case "newreno loss" `Quick test_newreno_halves_on_loss;
        Alcotest.test_case "min cwnd floor" `Quick test_min_cwnd_floor;
        Alcotest.test_case "cubic beta" `Quick test_cubic_beta_reduction;
        Alcotest.test_case "cubic recovery" `Quick
          test_cubic_growth_accelerates_past_wmax;
        Alcotest.test_case "hybla rho" `Quick test_hybla_rho_scaling;
        Alcotest.test_case "hybla short rtt" `Quick
          test_hybla_short_rtt_behaves_like_reno;
        Alcotest.test_case "illinois alpha" `Quick
          test_illinois_alpha_depends_on_delay;
        Alcotest.test_case "illinois beta" `Quick
          test_illinois_beta_depends_on_delay;
        Alcotest.test_case "vegas target" `Quick test_vegas_holds_at_target;
        Alcotest.test_case "vegas backoff" `Quick test_vegas_backs_off_queueing;
        Alcotest.test_case "bic search" `Quick test_bic_binary_search;
        Alcotest.test_case "westwood cut" `Quick
          test_westwood_bandwidth_based_cut;
        Alcotest.test_case "fast fixed point" `Quick
          test_fast_holds_alpha_packets_queued;
        Alcotest.test_case "fast baseRTT misestimate" `Quick
          test_fast_misled_by_baseline_misestimate;
        Alcotest.test_case "highspeed scaling" `Quick
          test_highspeed_scales_with_window;
        Alcotest.test_case "registry" `Quick test_registry;
      ] );
    ( "tcp.sender",
      [
        Alcotest.test_case "fills clean link" `Quick test_tcp_fills_clean_link;
        Alcotest.test_case "slow start" `Quick test_tcp_slow_start_doubles;
        Alcotest.test_case "fast retransmit" `Quick
          test_tcp_fast_retransmit_on_loss;
        Alcotest.test_case "finite transfer" `Quick
          test_tcp_finite_transfer_completes;
        Alcotest.test_case "timeout on blackhole" `Quick
          test_tcp_timeout_on_blackhole;
        Alcotest.test_case "pacing" `Quick test_tcp_pacing_spreads_sends;
        Alcotest.test_case "fast retransmit highest first" `Quick
          test_tcp_fast_retransmit_highest_first;
        Alcotest.test_case "go-back-N lowest first" `Quick
          test_tcp_go_back_n_lowest_first;
      ] );
  ]
