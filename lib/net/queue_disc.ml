type t = {
  name : string;
  enqueue : now:float -> Packet.t -> bool;
  dequeue : now:float -> Packet.t option;
  peek : unit -> Packet.t option;
  len_bytes : unit -> int;
  len_pkts : unit -> int;
  drops : unit -> int;
  capacity_bytes : unit -> int option;
}

(* Shared FIFO core: all disciplines below are policies layered on it. *)
module Fifo = struct
  type fifo = { q : Packet.t Queue.t; mutable bytes : int }

  let create () = { q = Queue.create (); bytes = 0 }

  let push f (p : Packet.t) =
    Queue.push p f.q;
    f.bytes <- f.bytes + p.size

  let pop f =
    match Queue.take_opt f.q with
    | None -> None
    | Some p ->
      f.bytes <- f.bytes - p.size;
      Some p

  let peek f = Queue.peek_opt f.q
  let bytes f = f.bytes
  let pkts f = Queue.length f.q
end

let droptail_generic ~name ~fits ?(capacity_bytes = fun () -> None) () =
  let f = Fifo.create () in
  let drops = ref 0 in
  {
    name;
    enqueue =
      (fun ~now p ->
        if fits f p then begin
          p.Packet.enqueued_at <- now;
          Fifo.push f p;
          true
        end
        else begin
          incr drops;
          false
        end);
    dequeue = (fun ~now:_ -> Fifo.pop f);
    peek = (fun () -> Fifo.peek f);
    len_bytes = (fun () -> Fifo.bytes f);
    len_pkts = (fun () -> Fifo.pkts f);
    drops = (fun () -> !drops);
    capacity_bytes;
  }

let droptail_bytes ~capacity () =
  let capacity = max capacity Pcc_sim.Units.mss in
  droptail_generic ~name:"droptail"
    ~fits:(fun f p -> Fifo.bytes f + p.Packet.size <= capacity)
    ~capacity_bytes:(fun () -> Some capacity)
    ()

let droptail_pkts ~capacity () =
  let capacity = max capacity 1 in
  droptail_generic ~name:"droptail-pkts" ~fits:(fun f _ -> Fifo.pkts f < capacity)
    ~capacity_bytes:(fun () -> Some (capacity * Pcc_sim.Units.mss))
    ()

let infinite () = droptail_generic ~name:"infinite" ~fits:(fun _ _ -> true) ()

(* CoDel per the ACM Queue pseudocode (Nichols & Jacobson, 2012). *)
let codel ?(target = 0.005) ?(interval = 0.1) ~capacity () =
  let capacity = max capacity Pcc_sim.Units.mss in
  let f = Fifo.create () in
  let drops = ref 0 in
  let first_above = ref 0. in
  let drop_next = ref 0. in
  let count = ref 0 in
  let lastcount = ref 0 in
  let dropping = ref false in
  let control_law t cnt = t +. (interval /. sqrt (float_of_int (max 1 cnt))) in
  (* Pop one packet and decide whether CoDel would drop it. *)
  let dodeque now =
    match Fifo.pop f with
    | None ->
      first_above := 0.;
      None
    | Some p ->
      let sojourn = now -. p.Packet.enqueued_at in
      let ok_to_drop =
        if sojourn < target || Fifo.bytes f <= Pcc_sim.Units.mss then begin
          first_above := 0.;
          false
        end
        else if !first_above = 0. then begin
          first_above := now +. interval;
          false
        end
        else now >= !first_above
      in
      Some (p, ok_to_drop)
  in
  let dequeue ~now =
    match dodeque now with
    | None ->
      dropping := false;
      None
    | Some (p, ok) ->
      if !dropping then begin
        if not ok then begin
          dropping := false;
          Some p
        end
        else begin
          (* While in dropping state, drop at the control-law schedule. *)
          let result = ref (Some p) in
          let continue = ref true in
          while !continue && !dropping && now >= !drop_next do
            match !result with
            | None -> continue := false
            | Some victim -> (
              ignore victim;
              incr drops;
              incr count;
              match dodeque now with
              | None ->
                dropping := false;
                result := None
              | Some (p', ok') ->
                result := Some p';
                if not ok' then dropping := false
                else drop_next := control_law !drop_next !count)
          done;
          !result
        end
      end
      else begin
        if ok && (now -. !drop_next < interval || now -. !first_above >= interval)
        then begin
          (* Enter dropping state: drop this packet, deliver the next. *)
          incr drops;
          dropping := true;
          let cnt =
            if now -. !drop_next < interval then
              if !count > 2 then !count - 2 else 1
            else 1
          in
          count := cnt;
          lastcount := cnt;
          drop_next := control_law now !count;
          match dodeque now with
          | None ->
            dropping := false;
            None
          | Some (p', _) -> Some p'
        end
        else Some p
      end
  in
  {
    name = "codel";
    enqueue =
      (fun ~now p ->
        if Fifo.bytes f + p.Packet.size <= capacity then begin
          p.Packet.enqueued_at <- now;
          Fifo.push f p;
          true
        end
        else begin
          incr drops;
          false
        end);
    dequeue;
    peek = (fun () -> Fifo.peek f);
    len_bytes = (fun () -> Fifo.bytes f);
    len_pkts = (fun () -> Fifo.pkts f);
    drops = (fun () -> !drops);
    capacity_bytes = (fun () -> Some capacity);
  }

let red ?min_th ?max_th ?(max_p = 0.1) ~capacity () =
  let capacity = max capacity Pcc_sim.Units.mss in
  let min_th = match min_th with Some v -> v | None -> capacity / 4 in
  let max_th = match max_th with Some v -> max (min_th + 1) v | None -> capacity / 2 in
  let f = Fifo.create () in
  let drops = ref 0 in
  let avg = ref 0. in
  let weight = 1. /. 512. in
  (* Deterministic thinning: drop every ceil(1/p)-th marked packet instead of
     coin flips, so RED queues stay reproducible without threading an RNG. *)
  let since_drop = ref 0 in
  {
    name = "red";
    enqueue =
      (fun ~now p ->
        avg := ((1. -. weight) *. !avg) +. (weight *. float_of_int (Fifo.bytes f));
        let drop =
          if Fifo.bytes f + p.Packet.size > capacity then true
          else if !avg >= float_of_int max_th then true
          else if !avg <= float_of_int min_th then false
          else begin
            let frac =
              (!avg -. float_of_int min_th) /. float_of_int (max_th - min_th)
            in
            let prob = frac *. max_p in
            incr since_drop;
            if prob > 0. && float_of_int !since_drop >= 1. /. prob then begin
              since_drop := 0;
              true
            end
            else false
          end
        in
        if drop then begin
          incr drops;
          false
        end
        else begin
          p.Packet.enqueued_at <- now;
          Fifo.push f p;
          true
        end);
    dequeue = (fun ~now:_ -> Fifo.pop f);
    peek = (fun () -> Fifo.peek f);
    len_bytes = (fun () -> Fifo.bytes f);
    len_pkts = (fun () -> Fifo.pkts f);
    drops = (fun () -> !drops);
    capacity_bytes = (fun () -> Some capacity);
  }

(* Deficit round robin (Shreedhar & Varghese) with pluggable per-flow
   sub-queues, so FQ+CoDel composes from the pieces above. *)
let fq ?(quantum = Pcc_sim.Units.mss) ~per_flow () =
  let quantum = max quantum Pcc_sim.Units.mss in
  let flows : (int, t * int ref * bool ref) Hashtbl.t = Hashtbl.create 16 in
  let active : int Queue.t = Queue.create () in
  let drops_here = ref 0 in
  let flow_state id =
    match Hashtbl.find_opt flows id with
    | Some st -> st
    | None ->
      let st = (per_flow (), ref 0, ref false) in
      Hashtbl.add flows id st;
      st
  in
  let total f = Hashtbl.fold (fun _ (q, _, _) acc -> acc + f q) flows 0 in
  let enqueue ~now (p : Packet.t) =
    let q, _, is_active = flow_state p.flow in
    let accepted = q.enqueue ~now p in
    if accepted && not !is_active then begin
      is_active := true;
      Queue.push p.flow active
    end;
    accepted
  in
  let rec dequeue ~now =
    match Queue.peek_opt active with
    | None -> None
    | Some id -> (
      let q, deficit, is_active = flow_state id in
      match q.peek () with
      | None ->
        (* Sub-queue drained (or only holds packets CoDel will drop):
           retire the flow from the active list and keep going. *)
        ignore (Queue.pop active);
        is_active := false;
        deficit := 0;
        dequeue ~now
      | Some head ->
        if head.size <= !deficit then begin
          match q.dequeue ~now with
          | Some p ->
            deficit := !deficit - p.size;
            if q.peek () = None then begin
              ignore (Queue.pop active);
              is_active := false;
              deficit := 0
            end;
            Some p
          | None ->
            (* CoDel consumed the remaining packets at dequeue time. *)
            ignore (Queue.pop active);
            is_active := false;
            deficit := 0;
            dequeue ~now
        end
        else begin
          deficit := !deficit + quantum;
          ignore (Queue.pop active);
          Queue.push id active;
          dequeue ~now
        end)
  in
  {
    name = "fq";
    enqueue;
    dequeue;
    peek =
      (fun () ->
        match Queue.peek_opt active with
        | None -> None
        | Some id ->
          let q, _, _ = flow_state id in
          q.peek ());
    len_bytes = (fun () -> total (fun q -> q.len_bytes ()));
    len_pkts = (fun () -> total (fun q -> q.len_pkts ()));
    drops = (fun () -> !drops_here + total (fun q -> q.drops ()));
    (* The aggregate bound depends on how many flows have appeared, so it
       is only meaningful as a point-in-time figure. *)
    capacity_bytes =
      (fun () ->
        Hashtbl.fold
          (fun _ (q, _, _) acc ->
            match (acc, q.capacity_bytes ()) with
            | Some a, Some c -> Some (a + c)
            | _ -> None)
          flows (Some 0));
  }
