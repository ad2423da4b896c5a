(* Quickstart: one PCC flow on a 100 Mbps, 30 ms link with 0.5% random
   loss — the scenario where TCP collapses and PCC does not.

     dune exec examples/quickstart.exe                                     *)

open Pcc_sim
open Pcc_scenario

let () =
  let engine = Engine.create () in
  let rng = Rng.create 42 in
  let bandwidth = Units.mbps 100. and rtt = 0.03 in

  (* Build a single-bottleneck path carrying one PCC flow. The transport
     uses the paper's defaults: safe utility, monitor intervals of
     max(10 pkts, U[1.7,2.2]*RTT), eps in [0.01,0.05] with RCTs. *)
  let topo =
    Topology.dumbbell engine ~rng ~bandwidth ~rtt
      ~buffer:(Units.bdp_bytes ~rate:bandwidth ~rtt)
      ~loss:0.005
      ~flows:[ Topology.flow ~route:[ 0; 1 ] (Transport.pcc ()) ]
      ()
  in
  let flow = (Topology.flows topo).(0) in

  Printf.printf "PCC on a 100 Mbps / 30 ms link with 0.5%% random loss\n";
  Printf.printf "%6s %12s %14s\n" "time" "goodput" "controller rate";
  let last = ref 0 in
  for second = 1 to 20 do
    Engine.run ~until:(float_of_int second) engine;
    let bytes = Topology.goodput_bytes flow in
    Printf.printf "%5ds %9.2f Mbps %11.2f Mbps\n" second
      (float_of_int ((bytes - !last) * 8) /. 1e6)
      (flow.Topology.sender.Pcc_net.Sender.rate_estimate () /. 1e6);
    last := bytes
  done;
  Printf.printf
    "\nA loss-hardwired TCP would sit at a few Mbps here (try the same\n\
     scenario with (Transport.tcp \"cubic\") to compare).\n"
