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

(* Shared FIFO core: all disciplines below are policies layered on it.
   Packets sit in a chain of fixed-size chunks, each packet's enqueue
   time beside it in the chunk's [since] (CoDel's sojourn). A chunk the
   head leaves is kept for reuse, so a queue allocates only when it
   grows past its longest length so far, never per packet; a popped
   slot is reset to [empty], so the queue never keeps a sent packet
   alive. Chunks stay below 128 words, the largest block the OCaml heap
   keeps in its own pools: one ring array doubling past that went to
   malloc, and freeing such arrays let malloc return memory to the
   system that the next engine's setup then faulted back in (perfbench
   [longhaul-loss] [setup_s] rose by a quarter). *)
module Fifo = struct
  let slots = 64

  type chunk = {
    pkts : Packet.t array;
    since : float array;
    mutable next : chunk;
  }

  type fifo = {
    mutable head : chunk;  (* the oldest packet is at [hi] *)
    mutable hi : int;
    mutable tail : chunk;  (* the next packet goes at [ti] *)
    mutable ti : int;
    mutable spare : chunk;  (* chunks for reuse, linked through [next] *)
    mutable len : int;
    mutable bytes : int;
  }

  let empty = Packet.data ~flow:0 ~seq:(-1) ~size:0 ~now:0. ~retx:false

  (* Ends every chain, and stands in for the first chunk until the
     first push, so an idle queue allocates no chunk. Never written. *)
  let rec none =
    { pkts = Array.make slots empty; since = Array.make slots 0.; next = none }

  let chunk () =
    { none with pkts = Array.make slots empty; since = Array.make slots 0. }

  let create () =
    {
      head = none;
      hi = 0;
      tail = none;
      ti = slots;
      spare = none;
      len = 0;
      bytes = 0;
    }

  let push f (p : Packet.t) ~now =
    if f.ti = slots then begin
      let c =
        if f.spare == none then chunk ()
        else begin
          let c = f.spare in
          f.spare <- c.next;
          c.next <- none;
          c
        end
      in
      if f.tail == none then f.head <- c else f.tail.next <- c;
      f.tail <- c;
      f.ti <- 0
    end;
    f.tail.pkts.(f.ti) <- p;
    f.tail.since.(f.ti) <- now;
    f.ti <- f.ti + 1;
    f.len <- f.len + 1;
    f.bytes <- f.bytes + p.size

  (* Enqueue time of the head packet; only meaningful when non-empty. *)
  let[@inline] head_since f = f.head.since.(f.hi)

  let pop f =
    if f.len = 0 then None
    else begin
      let c = f.head in
      let p = c.pkts.(f.hi) in
      c.pkts.(f.hi) <- empty;
      f.hi <- f.hi + 1;
      f.len <- f.len - 1;
      f.bytes <- f.bytes - p.size;
      if f.len = 0 then begin
        (* The last packet was the tail's: start that chunk over. *)
        f.hi <- 0;
        f.ti <- 0
      end
      else if f.hi = slots then begin
        f.head <- c.next;
        c.next <- f.spare;
        f.spare <- c;
        f.hi <- 0
      end;
      Some p
    end

  let peek f = if f.len = 0 then None else Some f.head.pkts.(f.hi)
  let bytes f = f.bytes
  let pkts f = f.len
end

let droptail_generic ~name ~fits ?(capacity_bytes = fun () -> None) () =
  let f = Fifo.create () in
  let drops = ref 0 in
  {
    name;
    enqueue =
      (fun ~now p ->
        if fits f p then begin
          Fifo.push f p ~now;
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
    let since = Fifo.head_since f in
    match Fifo.pop f with
    | None ->
      first_above := 0.;
      None
    | Some p ->
      let sojourn = now -. since in
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
          Fifo.push f p ~now;
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
          Fifo.push f p ~now;
          true
        end);
    dequeue = (fun ~now:_ -> Fifo.pop f);
    peek = (fun () -> Fifo.peek f);
    len_bytes = (fun () -> Fifo.bytes f);
    len_pkts = (fun () -> Fifo.pkts f);
    drops = (fun () -> !drops);
    capacity_bytes = (fun () -> Some capacity);
  }

(* A fair-queuing sub-queue. Active sub-queues form a service-order
   list linked through [next], so a rotation allocates nothing. *)
type sub = {
  sq : t;
  mutable deficit : int;
  mutable active : bool;
  mutable next : sub;
}

(* Deficit round robin (Shreedhar & Varghese) with pluggable per-flow
   sub-queues, so FQ+CoDel composes from the pieces above. *)
let fq ?(quantum = Pcc_sim.Units.mss) ~per_flow () =
  let quantum = max quantum Pcc_sim.Units.mss in
  let flows : (int, sub) Hashtbl.t = Hashtbl.create 16 in
  (* The list's end marker; its own queue is never used. *)
  let rec nil = { sq = infinite (); deficit = 0; active = false; next = nil } in
  let first = ref nil and last = ref nil in
  let activate s =
    s.active <- true;
    s.next <- nil;
    if !first == nil then first := s else !last.next <- s;
    last := s
  in
  (* Take the head sub-queue off the list. *)
  let advance () =
    let s = !first in
    first := s.next;
    s.next <- nil;
    if !first == nil then last := nil;
    s
  in
  let retire s =
    ignore (advance ());
    s.active <- false;
    s.deficit <- 0
  in
  let flow_state id =
    match Hashtbl.find_opt flows id with
    | Some s -> s
    | None ->
      let s = { sq = per_flow (); deficit = 0; active = false; next = nil } in
      Hashtbl.add flows id s;
      s
  in
  let total f = Hashtbl.fold (fun _ s acc -> acc + f s.sq) flows 0 in
  let enqueue ~now (p : Packet.t) =
    let s = flow_state p.flow in
    let accepted = s.sq.enqueue ~now p in
    if accepted && not s.active then activate s;
    accepted
  in
  let rec dequeue ~now =
    let s = !first in
    if s == nil then None
    else
      match s.sq.peek () with
      | None ->
        (* Sub-queue drained (or only holds packets CoDel will drop):
           retire the flow from the active list and keep going. *)
        retire s;
        dequeue ~now
      | Some head ->
        if head.size <= s.deficit then begin
          match s.sq.dequeue ~now with
          | Some p ->
            s.deficit <- s.deficit - p.size;
            if s.sq.peek () = None then retire s;
            Some p
          | None ->
            (* CoDel consumed the remaining packets at dequeue time. *)
            retire s;
            dequeue ~now
        end
        else begin
          s.deficit <- s.deficit + quantum;
          activate (advance ());
          dequeue ~now
        end
  in
  {
    name = "fq";
    enqueue;
    dequeue;
    peek = (fun () -> if !first == nil then None else !first.sq.peek ());
    len_bytes = (fun () -> total (fun q -> q.len_bytes ()));
    len_pkts = (fun () -> total (fun q -> q.len_pkts ()));
    drops = (fun () -> total (fun q -> q.drops ()));
    (* The aggregate bound depends on how many flows have appeared, so it
       is only meaningful as a point-in-time figure. *)
    capacity_bytes =
      (fun () ->
        Hashtbl.fold
          (fun _ s acc ->
            match (acc, s.sq.capacity_bytes ()) with
            | Some a, Some c -> Some (a + c)
            | _ -> None)
          flows (Some 0));
  }
