open Pcc_sim

type params = {
  bandwidth : float;
  rtt : float;
  buffer : int;
  loss : float;
  jitter : float;
  cross_fraction : float;
}

let random rng =
  let bandwidth = Rng.log_uniform rng (Units.mbps 10.) (Units.mbps 500.) in
  let rtt = Rng.log_uniform rng 0.01 0.3 in
  let bdp = Units.bdp_bytes ~rate:bandwidth ~rtt in
  (* Buffers between 1% and 60% of BDP — the Internet's long tail of
     shallow-buffered bottlenecks is what CUBIC trips over. *)
  let buffer =
    max (3 * Units.mss)
      (int_of_float (Rng.log_uniform rng 0.01 0.6 *. float_of_int bdp))
  in
  (* 60% of paths carry some random loss (old routers, failing wires,
     wireless segments), up to 1%. *)
  let loss =
    if Rng.bernoulli rng 0.4 then 0. else Rng.log_uniform rng 1e-4 1e-2
  in
  let jitter = Rng.uniform rng 0. 0.008 in
  let cross_fraction = Rng.uniform rng 0. 0.3 in
  { bandwidth; rtt; buffer; loss; jitter; cross_fraction }

let describe p =
  Printf.sprintf
    "bw=%.1fMbps rtt=%.0fms buf=%dKB loss=%.3f%% jitter=%.1fms cross=%.0f%%"
    (Units.to_mbps p.bandwidth) (p.rtt *. 1e3) (p.buffer / 1024)
    (p.loss *. 100.) (p.jitter *. 1e3)
    (p.cross_fraction *. 100.)

let measure ?(duration = 30.) ~seed p spec =
  let engine = Engine.create () in
  let rng = Rng.create seed in
  let topo =
    Topology.dumbbell engine ~rng:(Rng.split rng) ~bandwidth:p.bandwidth
      ~rtt:p.rtt ~buffer:p.buffer ~loss:p.loss ~jitter:p.jitter
      ~flows:[ Topology.flow ~route:[ 0; 1 ] spec ]
      ()
  in
  let cross =
    if p.cross_fraction > 0.001 then
      Some
        (Cross_traffic.onoff engine ~rng:(Rng.split rng)
           ~sink:(Topology.send_link topo 0)
           ~rate:(2. *. p.cross_fraction *. p.bandwidth)
           ~on_mean:0.25 ~off_mean:0.25 ())
    else None
  in
  let warmup = Float.max 3. (20. *. p.rtt) in
  Engine.run ~until:warmup engine;
  let flow = (Topology.flows topo).(0) in
  let b0 = Topology.goodput_bytes flow in
  Engine.run ~until:(warmup +. duration) engine;
  let b1 = Topology.goodput_bytes flow in
  (match cross with Some c -> Cross_traffic.stop c | None -> ());
  float_of_int ((b1 - b0) * 8) /. duration
