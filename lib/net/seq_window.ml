type t = { mutable base : int; mutable mask : int }

let create cap = { base = 0; mask = cap - 1 }

(* Call [f pos s len] for the slots of sequences [[lo, lo + n)] under
   [mask]: at most two runs, split where the ring wraps. *)
let runs mask lo n f =
  let p = lo land mask in
  let k = Int.min n (mask + 1 - p) in
  if k > 0 then f p lo k;
  if n > k then f 0 (lo + k) (n - k)

let reserve w s ~floor ~clear ~grow ~move =
  let cap = w.mask + 1 in
  let nb = Int.min floor s in
  if nb > w.base then begin
    runs w.mask w.base (Int.min (nb - w.base) cap) (fun p _ n -> clear p n);
    w.base <- nb
  end;
  if s - w.base >= cap then begin
    let omask = w.mask and ncap = ref (2 * cap) in
    while s - w.base >= !ncap do
      ncap := 2 * !ncap
    done;
    w.mask <- !ncap - 1;
    grow !ncap;
    (* The new capacity is a multiple of the old, so a run contiguous in
       the old ring stays contiguous in the new one. *)
    runs omask w.base cap (fun p id n -> move p (id land w.mask) n)
  end
