open Pcc_sim

(* Float-only, so OCaml stores it unboxed: the per-send write is a plain
   store, with no box and no write barrier. *)
type clock = { mutable rate : float; mutable last_send : float }

type t = {
  engine : Engine.t;
  clock : clock;
  send : unit -> int option;
  mutable running : bool;
  (* One timer and one callback for the pacer's life: at most one send
     is pending, so each is re-armed in place. *)
  timer : Engine.timer;
  on_fire : unit -> unit;
}

(* [Units.bits_of_bytes] spelled out: a call across modules would box
   its result on every send. *)
let interval t size = float_of_int size *. 8. /. t.clock.rate

let schedule_next t ~after =
  if t.running && not (Engine.is_pending t.timer) then
    Engine.arm_in t.engine t.timer ~after t.on_fire

let fire t =
  if t.running then begin
    match t.send () with
    | Some size ->
      t.clock.last_send <- Engine.now t.engine;
      schedule_next t ~after:(interval t size)
    | None ->
      (* No data: pause until kicked. *)
      ()
  end

let create engine ~rate ~send =
  if rate <= 0. then invalid_arg "Rate_pacer.create: rate must be positive";
  let rec t =
    {
      engine;
      clock = { rate; last_send = neg_infinity };
      send;
      running = false;
      timer = Engine.timer engine;
      on_fire = (fun () -> fire t);
    }
  in
  t

let start t =
  if not t.running then begin
    t.running <- true;
    schedule_next t ~after:0.
  end

let stop t =
  t.running <- false;
  Engine.cancel t.timer

let kick t =
  if t.running && not (Engine.is_pending t.timer) then begin
    let gap = interval t Units.mss in
    let wait = Float.max 0. (t.clock.last_send +. gap -. Engine.now t.engine) in
    schedule_next t ~after:wait
  end

let set_rate t r =
  if r <= 0. then invalid_arg "Rate_pacer.set_rate: rate must be positive";
  t.clock.rate <- r

let rate t = t.clock.rate
let running t = t.running
