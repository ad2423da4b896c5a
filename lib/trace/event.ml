type kind =
  | Dispatch
  | Enqueue
  | Drop
  | Queue_sample
  | Mi_start
  | Mi_end
  | Mi_discard
  | Rate_change
  | Cwnd
  | Flow_start
  | Flow_stop
  | Flow_complete
  | Gradient_step
  | Utility_switch

type scope = Engine_scope | Link_scope | Flow_scope

let cat_engine = 1
let cat_link = 2
let cat_pcc = 4
let cat_tcp = 8
let cat_flow = 16
let cat_all = cat_engine lor cat_link lor cat_pcc lor cat_tcp lor cat_flow
let cat_default = cat_all land lnot cat_engine

let cat_of_kind = function
  | Dispatch -> cat_engine
  | Enqueue | Drop | Queue_sample -> cat_link
  | Mi_start | Mi_end | Mi_discard | Rate_change | Gradient_step
  | Utility_switch ->
    cat_pcc
  | Cwnd -> cat_tcp
  | Flow_start | Flow_stop | Flow_complete -> cat_flow

let cat_of_string = function
  | "engine" -> Some cat_engine
  | "link" -> Some cat_link
  | "pcc" -> Some cat_pcc
  | "tcp" -> Some cat_tcp
  | "flow" -> Some cat_flow
  | "all" -> Some cat_all
  | "default" -> Some cat_default
  | _ -> None

let all_kinds =
  [|
    Dispatch;
    Enqueue;
    Drop;
    Queue_sample;
    Mi_start;
    Mi_end;
    Mi_discard;
    Rate_change;
    Cwnd;
    Flow_start;
    Flow_stop;
    Flow_complete;
    Gradient_step;
    Utility_switch;
  |]

let int_of_kind = function
  | Dispatch -> 0
  | Enqueue -> 1
  | Drop -> 2
  | Queue_sample -> 3
  | Mi_start -> 4
  | Mi_end -> 5
  | Mi_discard -> 6
  | Rate_change -> 7
  | Cwnd -> 8
  | Flow_start -> 9
  | Flow_stop -> 10
  | Flow_complete -> 11
  | Gradient_step -> 12
  | Utility_switch -> 13

let kind_of_int n =
  if n < 0 || n >= Array.length all_kinds then
    invalid_arg (Printf.sprintf "Event.kind_of_int: %d" n);
  all_kinds.(n)

(* phase in the low 2 bits, step above. *)
let pack_rate_info ~phase ~step = (step lsl 2) lor (phase land 3)
let rate_phase packed = packed land 3
let rate_step packed = packed lsr 2

(* direction bit 0, boundary-clamp bit 1, confidence amplifier above. *)
let pack_gradient_info ~up ~clamped ~amp =
  (amp lsl 2) lor (if clamped then 2 else 0) lor (if up then 1 else 0)

let gradient_up packed = packed land 1 = 1
let gradient_clamped packed = packed land 2 = 2
let gradient_amp packed = packed lsr 2

type record = {
  time : float;
  kind : kind;
  id : int;
  a : float;
  b : float;
  i : int;
}
