open Pcc_sim
open Pcc_scenario

(* ------------------------------------------------------------------ *)
(* Shared validation: every malformed input is rejected in one place
   (Topology.build) with Invalid_argument, for direct graph builds and
   through both wrappers. *)

let reject name thunk =
  Alcotest.(check bool) name true
    (try
       ignore (thunk ());
       false
     with Invalid_argument _ -> true)

let l ?name ?delay ?buffer ?queue ?loss ?jitter ~src ~dst bw =
  Topology.link ?name ?delay ?buffer ?queue ?loss ?jitter ~src ~dst
    ~bandwidth:bw ()

let build_with ?nodes ?(links = [ l ~src:0 ~dst:1 (Units.mbps 10.) ])
    ?rev_loss ?(flows = []) () =
  let engine = Engine.create () in
  Topology.build engine ~rng:(Rng.create 1) ?nodes ~links ?rev_loss ~flows ()

let test_link_validation () =
  reject "empty links" (fun () -> build_with ~links:[] ());
  reject "negative endpoint" (fun () ->
      build_with ~links:[ l ~src:(-1) ~dst:0 (Units.mbps 10.) ] ());
  reject "self loop" (fun () ->
      build_with ~links:[ l ~src:1 ~dst:1 (Units.mbps 10.) ] ());
  reject "duplicate edge" (fun () ->
      build_with
        ~links:
          [ l ~src:0 ~dst:1 (Units.mbps 10.); l ~src:0 ~dst:1 (Units.mbps 5.) ]
        ());
  reject "zero bandwidth" (fun () ->
      build_with ~links:[ l ~src:0 ~dst:1 0. ] ());
  reject "negative delay" (fun () ->
      build_with ~links:[ l ~delay:(-0.001) ~src:0 ~dst:1 (Units.mbps 10.) ] ());
  reject "zero buffer" (fun () ->
      build_with ~links:[ l ~buffer:0 ~src:0 ~dst:1 (Units.mbps 10.) ] ());
  reject "loss above 1" (fun () ->
      build_with ~links:[ l ~loss:1.5 ~src:0 ~dst:1 (Units.mbps 10.) ] ());
  reject "negative jitter" (fun () ->
      build_with ~links:[ l ~jitter:(-1.) ~src:0 ~dst:1 (Units.mbps 10.) ] ());
  reject "rev_loss above 1" (fun () -> build_with ~rev_loss:2. ());
  reject "node count below links" (fun () -> build_with ~nodes:1 ());
  (* An Infinite queue has no byte capacity, so buffer is not checked. *)
  ignore
    (build_with
       ~links:[ l ~queue:Topology.Infinite ~buffer:0 ~src:0 ~dst:1 (Units.mbps 10.) ]
       ())

let test_flow_validation () =
  let flow ?start_at ?stop_at ?size ?extra_rtt ?rev_route ~route () =
    Topology.flow ?start_at ?stop_at ?size ?extra_rtt ?rev_route ~route
      (Transport.tcp "newreno")
  in
  reject "negative start_at" (fun () ->
      build_with ~flows:[ flow ~start_at:(-1.) ~route:[ 0; 1 ] () ] ());
  reject "stop_at before start_at" (fun () ->
      build_with ~flows:[ flow ~start_at:2. ~stop_at:1. ~route:[ 0; 1 ] () ] ());
  reject "stop_at equal to start_at" (fun () ->
      build_with ~flows:[ flow ~start_at:2. ~stop_at:2. ~route:[ 0; 1 ] () ] ());
  reject "zero size" (fun () ->
      build_with ~flows:[ flow ~size:0 ~route:[ 0; 1 ] () ] ());
  reject "negative extra_rtt" (fun () ->
      build_with ~flows:[ flow ~extra_rtt:(-0.01) ~route:[ 0; 1 ] () ] ());
  reject "one-node route" (fun () ->
      build_with ~flows:[ flow ~route:[ 0 ] () ] ());
  reject "route outside graph" (fun () ->
      build_with ~flows:[ flow ~route:[ 0; 7 ] () ] ());
  reject "route with no link" (fun () ->
      build_with ~flows:[ flow ~route:[ 1; 0 ] () ] ());
  reject "route revisits a node" (fun () ->
      build_with
        ~links:
          [ l ~src:0 ~dst:1 (Units.mbps 10.); l ~src:1 ~dst:0 (Units.mbps 10.) ]
        ~flows:[ flow ~route:[ 0; 1; 0 ] () ]
        ());
  reject "reverse route wrong endpoints" (fun () ->
      build_with
        ~links:
          [
            l ~src:0 ~dst:1 (Units.mbps 10.);
            l ~src:1 ~dst:2 (Units.mbps 10.);
            l ~src:2 ~dst:1 (Units.mbps 10.);
          ]
        ~flows:[ flow ~route:[ 0; 1 ] ~rev_route:[ 2; 1 ] () ]
        ())

(* A non-finite start or stop is refused by name, not left to queue an
   event the scheduler cannot order. *)
let test_non_finite_flow_times () =
  let flow ?start_at ?stop_at () =
    Topology.flow ?start_at ?stop_at ~route:[ 0; 1 ] (Transport.tcp "newreno")
  in
  let rejected name f =
    match build_with ~flows:[ f ] () with
    | _ -> Alcotest.failf "%s: accepted" name
    | exception Invalid_argument msg ->
      let prefix = "Topology.build: flow" in
      if not (String.starts_with ~prefix msg) then
        Alcotest.failf "%s: unexpected message %S" name msg
  in
  rejected "stop_at infinity" (flow ~stop_at:Float.infinity ());
  rejected "stop_at nan" (flow ~stop_at:Float.nan ());
  rejected "start_at infinity" (flow ~start_at:Float.infinity ());
  rejected "start_at nan" (flow ~start_at:Float.nan ())

let test_wrapper_validation () =
  (* The wrappers inherit the shared checks the old builders lacked
     (Path) or hand-rolled (Multihop). *)
  let engine = Engine.create () in
  let rng = Rng.create 1 in
  reject "Path: stop before start" (fun () ->
      Path.build engine ~rng ~bandwidth:(Units.mbps 10.) ~rtt:0.03
        ~buffer:(Units.kib 64)
        ~flows:[ Path.flow ~start_at:5. ~stop_at:1. (Transport.pcc ()) ]
        ());
  reject "Path: zero size" (fun () ->
      Path.build engine ~rng ~bandwidth:(Units.mbps 10.) ~rtt:0.03
        ~buffer:(Units.kib 64)
        ~flows:[ Path.flow ~size:0 (Transport.pcc ()) ]
        ());
  reject "Multihop: enter = exit" (fun () ->
      Multihop.build engine ~rng
        ~hops:[ Multihop.hop ~bandwidth:(Units.mbps 10.) () ]
        ~flows:[ Multihop.flow ~enter:0 ~exit:0 (Transport.pcc ()) ]
        ());
  reject "Multihop: backwards flow" (fun () ->
      Multihop.build engine ~rng
        ~hops:
          [
            Multihop.hop ~bandwidth:(Units.mbps 10.) ();
            Multihop.hop ~bandwidth:(Units.mbps 10.) ();
          ]
        ~flows:[ Multihop.flow ~enter:2 ~exit:0 (Transport.pcc ()) ]
        ());
  reject "Multihop: negative enter" (fun () ->
      Multihop.build engine ~rng
        ~hops:[ Multihop.hop ~bandwidth:(Units.mbps 10.) () ]
        ~flows:[ Multihop.flow ~enter:(-1) ~exit:1 (Transport.pcc ()) ]
        ())

(* ------------------------------------------------------------------ *)
(* FCT dedup: a sized flow through Path and through a single-hop
   Multihop with identical parameters records the identical completion
   time, because both wrappers share Topology's lifecycle. *)

let test_fct_identical_through_wrappers () =
  let bandwidth = Units.mbps 20. in
  let buffer = 64 * Units.mss in
  let size = 400 * Units.mss in
  let spec = Transport.tcp "newreno" in
  let via_path () =
    let engine = Engine.create () in
    let rng = Rng.create 11 in
    let path =
      Path.build engine ~rng ~bandwidth ~rtt:0.02 ~buffer
        ~flows:[ Path.flow ~size spec ]
        ()
    in
    Engine.run ~until:60. engine;
    let f = (Path.flows path).(0) in
    (f.Path.fct, Path.goodput_bytes f)
  in
  let via_multihop () =
    let engine = Engine.create () in
    let rng = Rng.create 11 in
    let mh =
      Multihop.build engine ~rng
        ~hops:[ Multihop.hop ~bandwidth ~delay:0.01 ~buffer () ]
        ~flows:[ Multihop.flow ~enter:0 ~exit:1 ~size spec ]
        ()
    in
    Engine.run ~until:60. engine;
    let f = (Multihop.flows mh).(0) in
    (f.Multihop.fct, Multihop.goodput_bytes f)
  in
  let fct_p, good_p = via_path () in
  let fct_m, good_m = via_multihop () in
  Alcotest.(check bool) "both completed" true
    (fct_p <> None && fct_m <> None);
  Alcotest.(check (option (float 1e-12))) "identical FCT" fct_p fct_m;
  Alcotest.(check int) "identical goodput" good_p good_m

(* Same-seed rebuilds of one graph reproduce byte-identical results. *)
let test_deterministic_rebuild () =
  let once () =
    let engine = Engine.create () in
    let topo =
      Topology.build engine ~rng:(Rng.create 7)
        ~links:
          [
            l ~name:"a" ~src:0 ~dst:1 (Units.mbps 30.);
            l ~name:"b" ~src:1 ~dst:2 (Units.mbps 12.);
          ]
        ~flows:
          [
            Topology.flow ~route:[ 0; 1; 2 ] (Transport.pcc ());
            Topology.flow ~route:[ 1; 2 ] (Transport.tcp "cubic");
          ]
        ()
    in
    Engine.run ~until:10. engine;
    Array.map Topology.goodput_bytes (Topology.flows topo)
  in
  Alcotest.(check (array int)) "same goodputs" (once ()) (once ())

(* ------------------------------------------------------------------ *)
(* Parking-lot conservation on a 3-hop asymmetric chain: no flow beats
   the narrowest link on its route, and no link carries more than its
   capacity across all flows sharing it. *)

let test_parking_lot_conservation () =
  let engine = Engine.create () in
  let duration = 20. in
  let bw = [| Units.mbps 20.; Units.mbps 8.; Units.mbps 15. |] in
  let topo =
    Topology.build engine ~rng:(Rng.create 5)
      ~links:
        [
          l ~name:"hop0" ~src:0 ~dst:1 bw.(0);
          l ~name:"hop1" ~src:1 ~dst:2 bw.(1);
          l ~name:"hop2" ~src:2 ~dst:3 bw.(2);
        ]
      ~flows:
        [
          Topology.flow ~label:"long" ~route:[ 0; 1; 2; 3 ] (Transport.pcc ());
          Topology.flow ~label:"local0" ~route:[ 0; 1 ] (Transport.pcc ());
          Topology.flow ~label:"local2" ~route:[ 2; 3 ] (Transport.tcp "cubic");
        ]
      ()
  in
  let inv = Invariant.attach_topology topo in
  Engine.run ~until:duration engine;
  Invariant.check_now inv;
  let flows = Topology.flows topo in
  let rate i = float_of_int (Topology.goodput_bytes flows.(i) * 8) /. duration in
  (* Per-flow goodput bounded by the narrowest link on its route. *)
  Array.iteri
    (fun i (f : Topology.built_flow) ->
      let cap =
        List.fold_left
          (fun acc id -> Float.min acc bw.(id))
          infinity
          (Topology.route_links topo ~flow:i)
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s within route capacity" f.Topology.def.Topology.label)
        true
        (rate i <= cap *. 1.01))
    flows;
  (* Per-link: the goodputs of all flows crossing a link sum to at most
     its bandwidth. *)
  for link = 0 to Topology.num_links topo - 1 do
    let total = ref 0. in
    Array.iteri
      (fun i _ ->
        if List.mem link (Topology.route_links topo ~flow:i) then
          total := !total +. rate i)
      flows;
    Alcotest.(check bool)
      (Printf.sprintf "link %d utilization sum within capacity" link)
      true
      (!total <= bw.(link) *. 1.01)
  done;
  (* The chain is asymmetric on purpose: the long flow is held below the
     middle hop while local0 still uses hop0's surplus. *)
  Alcotest.(check bool) "long flow saw the 8 Mbps hop" true
    (rate 0 <= bw.(1) *. 1.01);
  Alcotest.(check bool) "hop0 local exploits surplus" true (rate 1 > rate 0)

(* ------------------------------------------------------------------ *)
(* Congested reverse path: with acks squeezed through a link ~100x
   narrower than the data direction, CUBIC's ack clock starves and
   goodput collapses even though the forward link has idle capacity.
   The flat Path API cannot express this shape. *)

let test_congested_reverse_path_degrades_cubic () =
  let bandwidth = Units.mbps 50. in
  let duration = 15. in
  let fwd ~name = l ~name ~delay:0.015 ~src:0 ~dst:1 bandwidth in
  let run ~links ~rev_route =
    let engine = Engine.create () in
    let topo =
      Topology.build engine ~rng:(Rng.create 3) ~links
        ~flows:[ Topology.flow ~route:[ 0; 1 ] ?rev_route (Transport.tcp "cubic") ]
        ()
    in
    Engine.run ~until:duration engine;
    let goodput =
      float_of_int (Topology.goodput_bytes (Topology.flows topo).(0) * 8)
      /. duration
    in
    let util link =
      Pcc_net.Link.busy_time (Topology.link_at topo link) /. duration
    in
    (goodput, util)
  in
  let ideal_goodput, ideal_util =
    run ~links:[ fwd ~name:"forward" ] ~rev_route:None
  in
  let congested_goodput, congested_util =
    run
      ~links:
        [
          fwd ~name:"forward";
          l ~name:"ackpath" ~delay:0.015 ~buffer:(Units.kib 4) ~src:1 ~dst:0
            (Units.mbps 0.5);
        ]
      ~rev_route:(Some [ 1; 0 ])
  in
  (* Sanity: the baseline actually fills the forward link. *)
  Alcotest.(check bool) "ideal reverse fills the link" true
    (ideal_goodput > 0.8 *. bandwidth && ideal_util 0 > 0.8);
  Alcotest.(check bool) "congested acks degrade goodput" true
    (congested_goodput < 0.5 *. ideal_goodput);
  (* The bottleneck is the ack path, not the data path: the reverse link
     is saturated while goodput leaves most of the forward capacity
     unused (the forward link's busy_time stays high only because the
     starved ack clock triggers redundant retransmissions). *)
  Alcotest.(check bool) "ack path saturated" true (congested_util 1 > 0.9);
  Alcotest.(check bool) "forward capacity mostly unused by goodput" true
    (congested_goodput < 0.4 *. bandwidth)

(* ------------------------------------------------------------------ *)
(* Dynamic knobs and accessors. *)

let test_knobs_and_accessors () =
  let engine = Engine.create () in
  let topo =
    Topology.build engine ~rng:(Rng.create 2)
      ~links:
        [
          l ~name:"up" ~src:0 ~dst:1 (Units.mbps 10.);
          l ~name:"down" ~src:1 ~dst:0 (Units.mbps 10.);
        ]
      ~flows:
        [
          Topology.flow ~route:[ 0; 1 ] ~rev_route:[ 1; 0 ]
            (Transport.tcp "newreno");
          Topology.flow ~route:[ 0; 1 ] (Transport.tcp "newreno");
        ]
      ()
  in
  Alcotest.(check int) "num_nodes" 2 (Topology.num_nodes topo);
  Alcotest.(check int) "num_links" 2 (Topology.num_links topo);
  Alcotest.(check string) "link_name" "down" (Topology.link_name topo 1);
  Alcotest.(check (option int)) "link_between" (Some 1)
    (Topology.link_between topo 1 0);
  Alcotest.(check (option int)) "no such edge" None
    (Topology.link_between topo 0 0);
  Alcotest.(check (list int)) "route_links" [ 0 ]
    (Topology.route_links topo ~flow:0);
  Topology.set_link_bandwidth topo 0 (Units.mbps 5.);
  Alcotest.(check (float 1e-6)) "bandwidth knob" (Units.mbps 5.)
    (Pcc_net.Link.bandwidth (Topology.link_at topo 0));
  Topology.set_link_delay topo 0 0.042;
  Alcotest.(check (float 1e-12)) "delay knob" 0.042
    (Pcc_net.Link.delay (Topology.link_at topo 0));
  Topology.set_link_loss topo 0 0.25;
  Alcotest.(check (float 1e-12)) "loss knob" 0.25
    (Pcc_net.Link.loss (Topology.link_at topo 0));
  Topology.set_rev_loss topo 0.3;
  Alcotest.(check (float 1e-12)) "rev_loss stored" 0.3
    (Topology.rev_loss topo);
  reject "set_rev_delay on routed reverse" (fun () ->
      Topology.set_rev_delay topo ~flow:0 0.01);
  Topology.set_rev_delay topo ~flow:1 0.01;
  reject "link id out of range" (fun () ->
      Topology.set_link_bandwidth topo 9 (Units.mbps 1.));
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  let d = Topology.describe topo in
  Alcotest.(check bool) "describe mentions nodes" true (contains d "2 nodes");
  Alcotest.(check bool) "describe names links" true (contains d "down")

let suites =
  [
    ( "scenario.topology",
      [
        Alcotest.test_case "link validation" `Quick test_link_validation;
        Alcotest.test_case "flow validation" `Quick test_flow_validation;
        Alcotest.test_case "non-finite flow times" `Quick
          test_non_finite_flow_times;
        Alcotest.test_case "wrapper validation" `Quick test_wrapper_validation;
        Alcotest.test_case "fct identical through wrappers" `Slow
          test_fct_identical_through_wrappers;
        Alcotest.test_case "deterministic rebuild" `Slow
          test_deterministic_rebuild;
        Alcotest.test_case "parking-lot conservation" `Slow
          test_parking_lot_conservation;
        Alcotest.test_case "congested reverse path" `Slow
          test_congested_reverse_path_degrades_cubic;
        Alcotest.test_case "knobs and accessors" `Quick
          test_knobs_and_accessors;
      ] );
  ]
