(* Satellite scenario (§4.1.3): the WINDS link — 42 Mbps, 800 ms RTT,
   0.74% random loss, shallow buffer — where even the purpose-built TCP
   Hybla barely moves data. Runs PCC and Hybla side by side (each solo).

     dune exec examples/satellite.exe                                      *)

open Pcc_sim
open Pcc_scenario

let run name spec =
  let engine = Engine.create () in
  let rng = Rng.create 7 in
  let topo =
    Topology.dumbbell engine ~rng ~bandwidth:(Units.mbps 42.) ~rtt:0.8
      ~loss:0.0074
      ~buffer:30_000 (* a 20-packet buffer: tiny relative to the 4.2 MB BDP *)
      ~flows:[ Topology.flow ~route:[ 0; 1 ] spec ]
      ()
  in
  let flow = (Topology.flows topo).(0) in
  Engine.run ~until:100. engine;
  let tput = float_of_int (Topology.goodput_bytes flow * 8) /. 100. in
  Printf.printf "%-10s %6.2f Mbps  (%.0f%% of the 42 Mbps link)\n" name
    (tput /. 1e6)
    (tput /. Units.mbps 42. *. 100.);
  tput

let () =
  Printf.printf
    "Satellite link: 42 Mbps, 800 ms RTT, 0.74%% loss, 20-packet buffer\n";
  Printf.printf "100-second solo transfers:\n\n";
  let pcc = run "PCC" (Transport.pcc ()) in
  let hybla = run "TCP Hybla" (Transport.tcp "hybla") in
  let cubic = run "TCP CUBIC" (Transport.tcp "cubic") in
  Printf.printf "\nPCC/Hybla = %.1fx, PCC/CUBIC = %.1fx (paper: 17x vs Hybla)\n"
    (pcc /. hybla) (pcc /. cubic)
