(* Fairness and stability of competing flows (§4.2, Fig. 12): four PCC
   flows join a 100 Mbps dumbbell one after another; each incumbent
   yields until all four share the link equally — no router help, purely
   from the utility function's equilibrium (Theorem 1).

     dune exec examples/convergence.exe                                    *)

open Pcc_sim
open Pcc_scenario

let () =
  let engine = Engine.create () in
  let rng = Rng.create 5 in
  let bandwidth = Units.mbps 100. and rtt = 0.03 in
  let stagger = 120. in
  let flows = 4 in
  let topo =
    Topology.dumbbell engine ~rng ~bandwidth ~rtt
      ~buffer:(Units.bdp_bytes ~rate:bandwidth ~rtt)
      ~flows:
        (List.init flows (fun i ->
             Topology.flow ~route:[ 0; 1 ]
               ~start_at:(float_of_int i *. stagger)
               ~label:(Printf.sprintf "flow%d" (i + 1))
               (Transport.pcc ())))
      ()
  in
  let fs = Topology.flows topo in
  let last = Array.make flows 0 in
  Printf.printf "Four PCC flows joining every %.0f s on a 100 Mbps dumbbell\n\n"
    stagger;
  Printf.printf "%6s %10s %10s %10s %10s %8s\n" "time" "flow1" "flow2" "flow3"
    "flow4" "Jain";
  let horizon = int_of_float (float_of_int flows *. stagger) in
  for t = 1 to horizon / 10 do
    Engine.run ~until:(float_of_int (t * 10)) engine;
    let rates =
      Array.mapi
        (fun i f ->
          let b = Topology.goodput_bytes f in
          let r = float_of_int ((b - last.(i)) * 8) /. 10. /. 1e6 in
          last.(i) <- b;
          r)
        fs
    in
    let active = Array.of_list (List.filter (fun r -> r > 0.5) (Array.to_list rates)) in
    Printf.printf "%5ds %9.1fM %9.1fM %9.1fM %9.1fM %8.3f\n" (t * 10)
      rates.(0) rates.(1) rates.(2) rates.(3)
      (Pcc_metrics.Stats.jain_index active)
  done;
  Printf.printf
    "\nEach join re-converges to the new fair share; the Jain index across\n\
     active flows returns to ~1 (compare Fig. 12/13 of the paper).\n"
