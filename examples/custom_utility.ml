(* Pluggable utility functions (§2.4/§4.4): the same PCC machinery
   optimizing three different objectives on the same bufferbloated link.

   - the safe (throughput) utility fills the pipe and tolerates the queue;
   - the latency utility sacrifices a sliver of throughput to keep the
     queue — and therefore the RTT — near the propagation floor;
   - a custom application objective ("at least 10 Mbps, then minimize
     delay") shows the escape hatch.

     dune exec examples/custom_utility.exe                                 *)

open Pcc_sim
open Pcc_core
open Pcc_scenario

let run name utility =
  let engine = Engine.create () in
  let rng = Rng.create 12 in
  let config = Pcc_sender.config_with ~utility () in
  let topo =
    Topology.dumbbell engine ~rng ~bandwidth:(Units.mbps 40.) ~rtt:0.02
      ~buffer:(Units.mib 1) (* deep, bufferbloat-prone FIFO *)
      ~flows:[ Topology.flow ~route:[ 0; 1 ] (Transport.pcc ~config ()) ]
      ()
  in
  let flow = (Topology.flows topo).(0) in
  (* Skip the 10 s startup transient, then measure 30 s. *)
  Engine.run ~until:10. engine;
  let b0 = Topology.goodput_bytes flow in
  let rtt_sum = ref 0. in
  for i = 1 to 30 do
    Engine.run ~until:(10. +. float_of_int i) engine;
    rtt_sum := !rtt_sum +. flow.Topology.sender.Pcc_net.Sender.srtt ()
  done;
  let tput = float_of_int ((Topology.goodput_bytes flow - b0) * 8) /. 30. in
  let rtt = !rtt_sum /. 30. in
  Printf.printf "%-22s %6.2f Mbps  avg RTT %6.1f ms  (base 20 ms)\n" name
    (tput /. 1e6) (rtt *. 1e3)

let () =
  Printf.printf
    "One PCC stack, three objectives (40 Mbps link, 20 ms RTT, 1 MB FIFO)\n\n";
  run "safe (throughput)" (Utility.safe ());
  run "latency (power)" (Utility.latency ());
  (* Custom: full marks for the first 10 Mbps, then latency rules. *)
  let app_objective m =
    let open Utility in
    let mbps = m.throughput /. 1e6 in
    let base = Float.min mbps 10. in
    let extra = Float.max 0. (mbps -. 10.) in
    base +. (extra *. 0.02 /. Float.max m.avg_rtt 1e-3 /. 50.)
    -. (m.rate /. 1e6 *. m.loss)
  in
  run "custom (10 Mbps floor)" (Utility.custom ~name:"app" app_objective)
