open Pcc_sim
open Pcc_net

type t = {
  engine : Engine.t;
  rng : Rng.t;
  sink : Packet.t -> unit;
  rate : float;
  on_mean : float;
  off_mean : float;
  flow : int;
  mutable on_until : float;
  mutable running : bool;
  mutable seq : int;
  mutable sent : int;
}

let gap t = float_of_int (Units.mss * 8) /. t.rate

let rec send_tick t () =
  if t.running then begin
    let now = Engine.now t.engine in
    if now < t.on_until then begin
      let pkt =
        Packet.data ~flow:t.flow ~seq:t.seq ~size:Units.mss ~now ~retx:false
      in
      t.seq <- t.seq + 1;
      t.sent <- t.sent + 1;
      t.sink pkt;
      Engine.post_in t.engine ~after:(gap t) (send_tick t)
    end
    else begin
      (* OFF period, then a fresh burst. *)
      let off = Rng.exponential t.rng t.off_mean in
      Engine.post_in t.engine ~after:off (fun () ->
          if t.running then begin
            t.on_until <-
              Engine.now t.engine +. Rng.exponential t.rng t.on_mean;
            send_tick t ()
          end)
    end
  end

let onoff engine ~rng ~sink ~rate ~on_mean ~off_mean () =
  if rate <= 0. then invalid_arg "Cross_traffic.onoff: rate must be positive";
  let t =
    {
      engine;
      rng;
      sink;
      rate;
      on_mean;
      off_mean;
      flow = Packet.fresh_flow_id ();
      on_until = 0.;
      running = true;
      seq = 0;
      sent = 0;
    }
  in
  t.on_until <- Engine.now engine +. Rng.exponential rng on_mean;
  send_tick t ();
  t

let stop t = t.running <- false
let sent_pkts t = t.sent
