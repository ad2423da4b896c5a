(* Binary min-heap on two parallel arrays.

   [times] is a plain [float array] so the hot comparison path reads
   unboxed floats straight out of the array; [cells] carries the
   sequence number (FIFO tie-break), the cancellation handle and the
   payload. A mixed record holding the key would box the float and cost
   a pointer chase per comparison — with the key split out, sift loops
   touch [cells] only to break exact ties.

   Cancellation stays lazy (dead entries surface and are dropped at the
   root), but the heap maintains an exact live count so [size] and
   [is_empty] are O(1) and never over-report buried dead entries. *)

type handle = Handle.t

type 'a cell = { seq : int; h : handle; v : 'a }

type 'a t = {
  mutable times : float array;
  mutable cells : 'a cell array;
  mutable len : int;  (* slots used, including dead entries *)
  mutable next_seq : int;
  live : int ref;  (* pending (non-cancelled, non-popped) entries *)
}

let create () =
  { times = [||]; cells = [||]; len = 0; next_seq = 0; live = ref 0 }

let is_empty t = !(t.live) = 0
let size t = !(t.live)

(* Is key (time, c) strictly before slot [j]? *)
let before_slot t time (c : 'a cell) j =
  time < t.times.(j) || (time = t.times.(j) && c.seq < t.cells.(j).seq)

let ensure_capacity t time c =
  let cap = Array.length t.cells in
  if t.len >= cap then begin
    let ncap = if cap = 0 then 64 else cap * 2 in
    (* Unused slots are seeded with the entry being inserted; they are
       never read before being overwritten. *)
    let ntimes = Array.make ncap time in
    let ncells = Array.make ncap c in
    Array.blit t.times 0 ntimes 0 t.len;
    Array.blit t.cells 0 ncells 0 t.len;
    t.times <- ntimes;
    t.cells <- ncells
  end

(* Move the hole at [i] up until (time, c) fits, then place it. One
   write per visited level instead of a three-write swap. *)
let sift_up t i time c =
  let i = ref i in
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    if before_slot t time c parent then begin
      t.times.(!i) <- t.times.(parent);
      t.cells.(!i) <- t.cells.(parent);
      i := parent
    end
    else continue := false
  done;
  t.times.(!i) <- time;
  t.cells.(!i) <- c

(* Move the hole at [i] down until (time, c) fits, then place it. *)
let sift_down t i time c =
  let i = ref i in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 in
    if l >= t.len then continue := false
    else begin
      let r = l + 1 in
      let child =
        if
          r < t.len
          && (t.times.(r) < t.times.(l)
             || (t.times.(r) = t.times.(l)
                && t.cells.(r).seq < t.cells.(l).seq))
        then r
        else l
      in
      if
        t.times.(child) < time
        || (t.times.(child) = time && t.cells.(child).seq < c.seq)
      then begin
        t.times.(!i) <- t.times.(child);
        t.cells.(!i) <- t.cells.(child);
        i := child
      end
      else continue := false
    end
  done;
  t.times.(!i) <- time;
  t.cells.(!i) <- c

let push t ~time v =
  let h = Handle.make t.live in
  let c = { seq = t.next_seq; h; v } in
  t.next_seq <- t.next_seq + 1;
  ensure_capacity t time c;
  t.len <- t.len + 1;
  incr t.live;
  sift_up t (t.len - 1) time c;
  h

(* A single always-pending handle shared by every uncancellable entry;
   pop recognizes it physically and skips the state write. *)
let unit_handle : handle = Handle.make (ref 0)

let push_unit t ~time v =
  let c = { seq = t.next_seq; h = unit_handle; v } in
  t.next_seq <- t.next_seq + 1;
  ensure_capacity t time c;
  t.len <- t.len + 1;
  incr t.live;
  sift_up t (t.len - 1) time c

(* Remove the root, refilling the hole from the last slot. *)
let remove_root t =
  t.len <- t.len - 1;
  if t.len > 0 then begin
    let time = t.times.(t.len) and c = t.cells.(t.len) in
    sift_down t 0 time c
  end

let rec pop t =
  if t.len = 0 then None
  else begin
    let time = t.times.(0) and c = t.cells.(0) in
    remove_root t;
    if c.h.Handle.state = 0 then begin
      if c.h != unit_handle then c.h.Handle.state <- 2;
      decr t.live;
      Some (time, c.v)
    end
    else pop t
  end

let rec pop_cb t k =
  if t.len = 0 then false
  else begin
    let time = t.times.(0) and c = t.cells.(0) in
    remove_root t;
    if c.h.Handle.state = 0 then begin
      if c.h != unit_handle then c.h.Handle.state <- 2;
      decr t.live;
      k time c.v;
      true
    end
    else pop_cb t k
  end

let rec pop_le t ~max_time =
  if t.len = 0 then None
  else if t.cells.(0).h.Handle.state <> 0 then begin
    (* Dead root: discard it even if it lies beyond [max_time]. *)
    remove_root t;
    pop_le t ~max_time
  end
  else if t.times.(0) > max_time then None
  else begin
    let time = t.times.(0) and c = t.cells.(0) in
    remove_root t;
    if c.h != unit_handle then c.h.Handle.state <- 2;
    decr t.live;
    Some (time, c.v)
  end

let rec peek_time t =
  if t.len = 0 then None
  else if t.cells.(0).h.Handle.state <> 0 then begin
    remove_root t;
    peek_time t
  end
  else Some t.times.(0)

let cancel = Handle.cancel
let cancelled = Handle.cancelled
