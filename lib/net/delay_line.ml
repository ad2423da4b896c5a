open Pcc_sim

type t = {
  engine : Engine.t;
  mutable delay : float;
  mutable loss : float;
  rng : Rng.t option;
  mutable receiver : Packet.t -> unit;
  (* Posted with each packet as its argument: one closure per line, not
     one per packet. It reads [receiver] when the packet arrives. *)
  deliver : Packet.t -> unit;
}

let create engine ?(loss = 0.) ?rng ~delay () =
  if delay < 0. then invalid_arg "Delay_line.create: delay must be non-negative";
  if loss > 0. && rng = None then
    invalid_arg "Delay_line.create: loss requires an rng";
  let rec t =
    {
      engine;
      delay;
      loss;
      rng;
      receiver = (fun _ -> failwith "Delay_line: no receiver attached");
      deliver = (fun p -> t.receiver p);
    }
  in
  t

let set_receiver t f = t.receiver <- f

let send t p =
  let lost =
    t.loss > 0.
    && match t.rng with Some rng -> Rng.bernoulli rng t.loss | None -> false
  in
  if not lost then
    Engine.post_apply_in t.engine ~after:t.delay t.deliver p

let set_delay t d =
  if d < 0. then invalid_arg "Delay_line.set_delay: must be non-negative";
  t.delay <- d

let set_loss t l =
  if l > 0. && t.rng = None then
    invalid_arg "Delay_line.set_loss: loss requires an rng";
  t.loss <- Float.max 0. (Float.min 1. l)

let delay t = t.delay
