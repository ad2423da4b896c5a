open Pcc_sim

type t = {
  engine : Engine.t;
  interval : float;
  probe : unit -> float;
  mutable acc : (float * float) list;  (* reversed *)
  mutable count : int;
  mutable running : bool;
}

let rec tick t () =
  if t.running then begin
    let now = Engine.now t.engine in
    t.acc <- (now, t.probe ()) :: t.acc;
    t.count <- t.count + 1;
    Engine.post_in t.engine ~after:t.interval (tick t)
  end

let create engine ?(interval = 1.0) probe =
  if interval <= 0. then invalid_arg "Recorder.create: interval must be positive";
  let t = { engine; interval; probe; acc = []; count = 0; running = true } in
  Engine.post_in engine ~after:interval (tick t);
  t

let stop t = t.running <- false

let samples t =
  let a = Array.make t.count (0., 0.) in
  let i = ref (t.count - 1) in
  List.iter
    (fun s ->
      a.(!i) <- s;
      decr i)
    t.acc;
  a

let rates t =
  let s = samples t in
  if Array.length s < 2 then [||]
  else
    Array.init
      (Array.length s - 1)
      (fun i ->
        let t1, v1 = s.(i + 1) and _, v0 = s.(i) in
        (t1, (v1 -. v0) /. t.interval))

let rates_bps t = Array.map (fun (time, v) -> (time, v *. 8.)) (rates t)
