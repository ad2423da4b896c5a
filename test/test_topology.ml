open Pcc_sim
open Pcc_scenario

(* ------------------------------------------------------------------ *)
(* Shared validation: every malformed input is rejected in one place
   (Topology.build) with Invalid_argument. *)

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
  reject "route with a negative node" (fun () ->
      build_with ~flows:[ flow ~route:[ -1; 0 ] () ] ());
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
  (* Topology.dumbbell adds no checks of its own: each malformed input
     reaches Topology.build and is rejected there. *)
  let dumbbell ?(rtt = 0.03) ?(buffer = Units.kib 64) flows =
    Topology.dumbbell (Engine.create ()) ~rng:(Rng.create 1)
      ~bandwidth:(Units.mbps 10.) ~rtt ~buffer ~flows ()
  in
  let pcc = Transport.pcc () in
  reject "dumbbell: stop before start" (fun () ->
      dumbbell [ Topology.flow ~route:[ 0; 1 ] ~start_at:5. ~stop_at:1. pcc ]);
  reject "dumbbell: zero size" (fun () ->
      dumbbell [ Topology.flow ~route:[ 0; 1 ] ~size:0 pcc ]);
  reject "dumbbell: enter = exit" (fun () ->
      dumbbell [ Topology.flow ~route:[ 0 ] pcc ]);
  reject "dumbbell: backwards flow" (fun () ->
      dumbbell [ Topology.flow ~route:[ 1; 0 ] pcc ]);
  reject "dumbbell: negative enter" (fun () ->
      dumbbell [ Topology.flow ~route:[ -1; 1 ] pcc ]);
  reject "dumbbell: negative rtt" (fun () ->
      dumbbell ~rtt:(-0.01) [ Topology.flow ~route:[ 0; 1 ] pcc ]);
  reject "dumbbell: zero buffer" (fun () ->
      dumbbell ~buffer:0 [ Topology.flow ~route:[ 0; 1 ] pcc ])

(* ------------------------------------------------------------------ *)
(* The dumbbell contract: one link "bottleneck" 0 -> 1 at rtt/2 with the
   given buffer, queue, loss and jitter, an ideal lossy-capable reverse line of
   rtt/2 + extra_rtt/2 per flow, and FCTs recorded for sized flows. *)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_dumbbell_contract () =
  let engine = Engine.create () in
  let size = 400 * Units.mss in
  let spec = Transport.tcp "newreno" in
  let topo =
    Topology.dumbbell engine ~rng:(Rng.create 11) ~bandwidth:(Units.mbps 20.)
      ~rtt:0.02 ~buffer:(64 * Units.mss) ~queue:Topology.Codel ~loss:0.001
      ~jitter:0.0005 ~rev_loss:0.01
      ~flows:
        [
          Topology.flow ~route:[ 0; 1 ] ~size spec;
          Topology.flow ~route:[ 0; 1 ] ~extra_rtt:0.01 ~start_at:0.5
            ~stop_at:1. spec;
        ]
      ()
  in
  Alcotest.(check int) "one link" 1 (Topology.num_links topo);
  Alcotest.(check string) "named bottleneck" "bottleneck"
    (Topology.link_name topo 0);
  Alcotest.(check (option int)) "runs 0 -> 1" (Some 0)
    (Topology.link_between topo 0 1);
  let link = Topology.link_at topo 0 in
  Alcotest.(check (float 1e-12)) "delay rtt/2" 0.01 (Pcc_net.Link.delay link);
  Alcotest.(check (float 1e-12)) "loss" 0.001 (Pcc_net.Link.loss link);
  Alcotest.(check (float 1e-12)) "jitter" 0.0005 (Pcc_net.Link.jitter link);
  Alcotest.(check (float 1e-12)) "initial rev_loss" 0.01
    (Topology.rev_loss topo);
  let d = Topology.describe topo in
  let has what sub =
    Alcotest.(check bool) (Printf.sprintf "describe: %s" what) true
      (contains d sub)
  in
  has "bottleneck link"
    (Printf.sprintf
       "link bottleneck   0 -> 1  20 Mbps  10 ms  buffer %d B  codel"
       (64 * Units.mss));
  has "ideal reverse at rtt/2" "reverse ideal (10 ms, lossy-capable)";
  has "extra_rtt/2 on the reverse" "reverse ideal (15 ms, lossy-capable)";
  Engine.run ~until:60. engine;
  let f = (Topology.flows topo).(0) in
  Alcotest.(check int) "sized flow delivered" size (Topology.goodput_bytes f);
  match f.Topology.fct with
  | Some fct when fct > 0. && fct < 60. -> ()
  | Some fct -> Alcotest.failf "fct %g outside (0, 60)" fct
  | None -> Alcotest.fail "sized flow recorded no fct"

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
   A dumbbell's ideal reverse lines cannot express this shape. *)

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
  let d = Topology.describe topo in
  Alcotest.(check bool) "describe mentions nodes" true (contains d "2 nodes");
  Alcotest.(check bool) "describe names links" true (contains d "down")

(* ------------------------------------------------------------------ *)
(* Parking-lot chains: link [i] runs node [i] -> [i+1] and a flow from
   node [a] to node [b] crosses links [a .. b-1]. Reverse lines carry no
   RNG ([~rev_lossy:false]), the split order these seeds were tuned
   with. *)

let chain ?loss bws =
  List.mapi (fun i bw -> l ?loss ~delay:0.005 ~src:i ~dst:(i + 1) bw) bws

let along ?size ?label a b spec =
  Topology.flow ?size ?label ~rev_lossy:false
    ~route:(List.init (b - a + 1) (fun k -> a + k))
    spec

let mbps_of flow duration =
  float_of_int (Topology.goodput_bytes flow * 8) /. duration /. 1e6

let test_single_hop_equivalent () =
  (* One hop behaves like a plain bottleneck link. *)
  let engine = Engine.create () in
  let net =
    Topology.build engine ~rng:(Rng.create 2)
      ~links:[ l ~delay:0.01 ~src:0 ~dst:1 (Units.mbps 50.) ]
      ~flows:[ along 0 1 (Transport.pcc ()) ]
      ()
  in
  Engine.run ~until:15. engine;
  Alcotest.(check bool) "fills the hop" true
    (mbps_of (Topology.flows net).(0) 15. > 40.)

let test_flow_bounded_by_narrowest_hop () =
  let engine = Engine.create () in
  let net =
    Topology.build engine ~rng:(Rng.create 2)
      ~links:(chain [ Units.mbps 100.; Units.mbps 20.; Units.mbps 100. ])
      ~flows:[ along 0 3 (Transport.pcc ()) ]
      ()
  in
  Engine.run ~until:20. engine;
  let tput = mbps_of (Topology.flows net).(0) 20. in
  Alcotest.(check bool) "bounded by 20 Mbps hop" true (tput < 21.);
  Alcotest.(check bool) "but fills it" true (tput > 15.)

let test_cross_flows_compete_per_hop () =
  (* A long flow over two hops shares each hop with a local flow. The
     long flow observes the SUM of both hops' loss rates, so the safe
     utility — whose sigmoid caps tolerable loss at 5% — concedes most of
     the capacity to the single-hop locals. (A known property of
     loss-based objectives across multiple bottlenecks; the paper only
     evaluates single-bottleneck topologies.) We assert the qualitative
     outcome: locals prosper, the long flow is squeezed but alive, and no
     hop is oversubscribed. *)
  let engine = Engine.create () in
  let net =
    Topology.build engine ~rng:(Rng.create 9)
      ~links:(chain [ Units.mbps 30.; Units.mbps 30. ])
      ~flows:
        [
          along ~label:"long" 0 2 (Transport.pcc ());
          along ~label:"hop0" 0 1 (Transport.pcc ());
          along ~label:"hop1" 1 2 (Transport.pcc ());
        ]
      ()
  in
  (* Measure after convergence. *)
  Engine.run ~until:40. engine;
  let b0 = Array.map Topology.goodput_bytes (Topology.flows net) in
  Engine.run ~until:80. engine;
  let share i =
    float_of_int ((Topology.goodput_bytes (Topology.flows net).(i)) - b0.(i))
    *. 8. /. 40. /. 1e6
  in
  let long = share 0 and h0 = share 1 and h1 = share 2 in
  Alcotest.(check bool) "hop capacities respected" true
    (long +. h0 < 31. && long +. h1 < 31.);
  Alcotest.(check bool) "long flow squeezed but alive" true (long > 0.1);
  Alcotest.(check bool) "locals dominate" true
    (h0 > 3. *. long && h1 > 3. *. long);
  Alcotest.(check bool) "local flows fill their hops" true
    (h0 > 20. && h1 > 20.)

let test_bad_args_rejected () =
  reject "empty chain" (fun () -> build_with ~links:[] ());
  reject "exit past the chain" (fun () ->
      build_with
        ~links:(chain [ Units.mbps 10. ])
        ~flows:[ along 0 2 (Transport.pcc ()) ]
        ())

let test_finite_transfer_across_hops () =
  let engine = Engine.create () in
  let net =
    Topology.build engine ~rng:(Rng.create 4)
      ~links:(chain ~loss:0.01 [ Units.mbps 20.; Units.mbps 20. ])
      ~flows:[ along ~size:(200 * Units.mss) 0 2 (Transport.pcc ()) ]
      ()
  in
  Engine.run ~until:60. engine;
  let f = (Topology.flows net).(0) in
  Alcotest.(check bool) "completes across lossy hops" true
    (f.Topology.sender.Pcc_net.Sender.is_complete ());
  Alcotest.(check bool) "fct recorded" true (f.Topology.fct <> None)

let suites =
  [
    ( "scenario.topology",
      [
        Alcotest.test_case "link validation" `Quick test_link_validation;
        Alcotest.test_case "flow validation" `Quick test_flow_validation;
        Alcotest.test_case "non-finite flow times" `Quick
          test_non_finite_flow_times;
        Alcotest.test_case "wrapper validation" `Quick test_wrapper_validation;
        Alcotest.test_case "dumbbell contract" `Slow test_dumbbell_contract;
        Alcotest.test_case "deterministic rebuild" `Slow
          test_deterministic_rebuild;
        Alcotest.test_case "parking-lot conservation" `Slow
          test_parking_lot_conservation;
        Alcotest.test_case "congested reverse path" `Slow
          test_congested_reverse_path_degrades_cubic;
        Alcotest.test_case "knobs and accessors" `Quick
          test_knobs_and_accessors;
      ] );
    ( "scenario.multihop",
      [
        Alcotest.test_case "single hop" `Slow test_single_hop_equivalent;
        Alcotest.test_case "narrowest hop binds" `Slow
          test_flow_bounded_by_narrowest_hop;
        Alcotest.test_case "per-hop competition" `Slow
          test_cross_flows_compete_per_hop;
        Alcotest.test_case "bad args" `Quick test_bad_args_rejected;
        Alcotest.test_case "finite transfer" `Slow
          test_finite_transfer_across_hops;
      ] );
  ]
