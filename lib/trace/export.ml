(* Exporters renumber raw ids densely by first appearance so that two
   seeded runs in the same process (whose process-global flow/link
   counters have advanced) still render byte-identical artifacts. *)

type renumber = {
  get : Event.scope -> int -> int * bool;  (* dense id, seen before *)
  label : Event.scope -> int -> string;
}

let make_renumber c =
  let table : (Event.scope * int, int) Hashtbl.t = Hashtbl.create 16 in
  let counters : (Event.scope, int) Hashtbl.t = Hashtbl.create 4 in
  let get scope raw =
    match Hashtbl.find_opt table (scope, raw) with
    | Some d -> (d, true)
    | None ->
      let d =
        match Hashtbl.find_opt counters scope with Some n -> n | None -> 0
      in
      Hashtbl.replace counters scope (d + 1);
      Hashtbl.replace table (scope, raw) d;
      (d, false)
  in
  let label scope raw =
    let d, _ = get scope raw in
    let generic =
      match scope with
      | Event.Flow_scope -> "flow"
      | Event.Link_scope -> "link"
      | Event.Engine_scope -> "engine"
    in
    match Collector.name c scope raw with
    | Some n -> Printf.sprintf "%s#%d" n d
    | None -> Printf.sprintf "%s#%d" generic d
  in
  { get; label }

(* Fixed float formats keep artifacts byte-stable; non-finite values
   (a utility of -inf from a zero-throughput log term) must not produce
   invalid JSON. *)
let num v = if Float.is_finite v then Printf.sprintf "%.6g" v else "null"

let ts time = Printf.sprintf "%.3f" (time *. 1e6)

(* ------------------------------------------------------------------ *)
(* Chrome trace-event JSON *)

let chrome_json c =
  let r = make_renumber c in
  let buf = Buffer.create 8192 in
  Buffer.add_string buf "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  let first = ref true in
  let entry s =
    if !first then first := false else Buffer.add_string buf ",\n";
    Buffer.add_string buf s
  in
  entry
    "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"args\":{\"name\":\"engine\"}}";
  entry
    "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{\"name\":\"flows\"}}";
  entry
    "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,\"args\":{\"name\":\"links\"}}";
  (* Metadata has no timestamp, so announcing a thread lazily — at the
     subject's first event — keeps file order deterministic. *)
  let announce scope raw =
    let dense, seen = r.get scope raw in
    (if not seen then
       let pid =
         match scope with
         | Event.Flow_scope -> 1
         | Event.Link_scope -> 2
         | Event.Engine_scope -> 0
       in
       entry
         (Printf.sprintf
            "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":%d,\"args\":{\"name\":\"%s\"}}"
            pid dense (r.label scope raw)));
    dense
  in
  Array.iter
    (fun (e : Event.record) ->
      let t = ts e.time in
      match e.kind with
      | Event.Dispatch ->
        entry
          (Printf.sprintf
             "{\"name\":\"pending\",\"cat\":\"engine\",\"ph\":\"C\",\"pid\":0,\"ts\":%s,\"args\":{\"events\":%s}}"
             t (num e.a))
      | Event.Enqueue ->
        let _ = announce Event.Link_scope e.id in
        entry
          (Printf.sprintf
             "{\"name\":\"queue:%s\",\"cat\":\"link\",\"ph\":\"C\",\"pid\":2,\"ts\":%s,\"args\":{\"bytes\":%s}}"
             (r.label Event.Link_scope e.id)
             t (num e.a))
      | Event.Drop ->
        let tid = announce Event.Link_scope e.id in
        (* The dropped packet's flow id is process-global too: renumber
           (and announce) it like any flow-scoped subject. *)
        let flow = announce Event.Flow_scope e.i in
        entry
          (Printf.sprintf
             "{\"name\":\"drop:%s\",\"cat\":\"link\",\"ph\":\"i\",\"s\":\"t\",\"pid\":2,\"tid\":%d,\"ts\":%s,\"args\":{\"flow\":%d}}"
             (r.label Event.Link_scope e.id)
             tid t flow)
      | Event.Queue_sample ->
        let _ = announce Event.Link_scope e.id in
        entry
          (Printf.sprintf
             "{\"name\":\"queue:%s\",\"cat\":\"link\",\"ph\":\"C\",\"pid\":2,\"ts\":%s,\"args\":{\"bytes\":%s,\"pkts\":%d}}"
             (r.label Event.Link_scope e.id)
             t (num e.a) e.i)
      | Event.Mi_start ->
        let tid = announce Event.Flow_scope e.id in
        entry
          (Printf.sprintf
             "{\"name\":\"MI %d\",\"cat\":\"pcc\",\"ph\":\"B\",\"pid\":1,\"tid\":%d,\"ts\":%s,\"args\":{\"mbps\":%s,\"planned_ms\":%s}}"
             e.i tid t
             (num (e.a /. 1e6))
             (num (e.b *. 1e3)))
      | Event.Mi_end ->
        let tid = announce Event.Flow_scope e.id in
        entry
          (Printf.sprintf
             "{\"name\":\"MI %d\",\"cat\":\"pcc\",\"ph\":\"E\",\"pid\":1,\"tid\":%d,\"ts\":%s,\"args\":{\"utility\":%s,\"loss\":%s}}"
             e.i tid t (num e.a) (num e.b))
      | Event.Mi_discard ->
        let tid = announce Event.Flow_scope e.id in
        entry
          (Printf.sprintf
             "{\"name\":\"MI %d\",\"cat\":\"pcc\",\"ph\":\"E\",\"pid\":1,\"tid\":%d,\"ts\":%s,\"args\":{\"discarded\":1}}"
             e.i tid t)
      | Event.Rate_change ->
        let _ = announce Event.Flow_scope e.id in
        entry
          (Printf.sprintf
             "{\"name\":\"rate:%s\",\"cat\":\"pcc\",\"ph\":\"C\",\"pid\":1,\"ts\":%s,\"args\":{\"mbps\":%s}}"
             (r.label Event.Flow_scope e.id)
             t
             (num (e.a /. 1e6)))
      | Event.Cwnd ->
        let _ = announce Event.Flow_scope e.id in
        entry
          (Printf.sprintf
             "{\"name\":\"cwnd:%s\",\"cat\":\"tcp\",\"ph\":\"C\",\"pid\":1,\"ts\":%s,\"args\":{\"pkts\":%s}}"
             (r.label Event.Flow_scope e.id)
             t (num e.a))
      | Event.Gradient_step ->
        let tid = announce Event.Flow_scope e.id in
        entry
          (Printf.sprintf
             "{\"name\":\"gradient\",\"cat\":\"pcc\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":%d,\"ts\":%s,\"args\":{\"gamma\":%s,\"mbps\":%s,\"dir\":\"%s\",\"amp\":%d,\"clamped\":%b}}"
             tid t (num e.a)
             (num (e.b /. 1e6))
             (if Event.gradient_up e.i then "up" else "down")
             (Event.gradient_amp e.i)
             (Event.gradient_clamped e.i))
      | Event.Utility_switch ->
        let tid = announce Event.Flow_scope e.id in
        entry
          (Printf.sprintf
             "{\"name\":\"utility-switch\",\"cat\":\"pcc\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":%d,\"ts\":%s,\"args\":{\"to\":%s,\"from\":%s,\"mi\":%d}}"
             tid t (num e.a) (num e.b) e.i)
      | Event.Flow_start | Event.Flow_stop | Event.Flow_complete ->
        let tid = announce Event.Flow_scope e.id in
        let name =
          match e.kind with
          | Event.Flow_start -> "start"
          | Event.Flow_stop -> "stop"
          | _ -> "complete"
        in
        let args =
          match e.kind with
          | Event.Flow_complete -> Printf.sprintf "{\"fct_s\":%s}" (num e.a)
          | _ -> "{}"
        in
        entry
          (Printf.sprintf
             "{\"name\":\"%s\",\"cat\":\"flow\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":%d,\"ts\":%s,\"args\":%s}"
             name tid t args))
    (Collector.events c);
  Buffer.add_string buf "\n]}\n";
  Buffer.contents buf

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

let write_chrome_json ~path c = write_file path (chrome_json c)

(* ------------------------------------------------------------------ *)
(* Decision log *)

let decision_log c =
  let r = make_renumber c in
  let buf = Buffer.create 4096 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf s) fmt in
  Array.iter
    (fun (e : Event.record) ->
      match e.kind with
      | Event.Mi_start ->
        line "t=%.9f %s mi %d open rate=%s Mbps planned=%s ms\n" e.time
          (r.label Event.Flow_scope e.id)
          e.i
          (num (e.a /. 1e6))
          (num (e.b *. 1e3))
      | Event.Mi_end ->
        line "t=%.9f %s mi %d result utility=%s loss=%.4f\n" e.time
          (r.label Event.Flow_scope e.id)
          e.i (num e.a) e.b
      | Event.Mi_discard ->
        line "t=%.9f %s mi %d discarded (realign)\n" e.time
          (r.label Event.Flow_scope e.id)
          e.i
      | Event.Rate_change ->
        let phase =
          match Event.rate_phase e.i with
          | 0 -> "starting"
          | 1 -> "decision"
          | _ -> "adjusting"
        in
        let step = Event.rate_step e.i in
        let dir = if e.a >= e.b then "up" else "down" in
        line "t=%.9f %s rate %s -> %s Mbps (%s%s, %s)\n" e.time
          (r.label Event.Flow_scope e.id)
          (num (e.b /. 1e6))
          (num (e.a /. 1e6))
          phase
          (if step > 0 then Printf.sprintf " step %d" step else "")
          dir
      | Event.Flow_start ->
        line "t=%.9f %s start\n" e.time (r.label Event.Flow_scope e.id)
      | Event.Flow_stop ->
        line "t=%.9f %s stop\n" e.time (r.label Event.Flow_scope e.id)
      | Event.Flow_complete ->
        line "t=%.9f %s complete fct=%s s\n" e.time
          (r.label Event.Flow_scope e.id)
          (num e.a)
      | Event.Gradient_step ->
        line "t=%.9f %s gradient %s -> %s Mbps (%s, m=%d%s)\n" e.time
          (r.label Event.Flow_scope e.id)
          (num e.a)
          (num (e.b /. 1e6))
          (if Event.gradient_up e.i then "up" else "down")
          (Event.gradient_amp e.i)
          (if Event.gradient_clamped e.i then ", clamped" else "")
      | Event.Utility_switch ->
        line "t=%.9f %s utility class %s -> %s (mi %d)\n" e.time
          (r.label Event.Flow_scope e.id)
          (num e.b) (num e.a) e.i
      | Event.Dispatch | Event.Enqueue | Event.Drop | Event.Queue_sample
      | Event.Cwnd ->
        ())
    (Collector.events c);
  Buffer.contents buf

let write_decision_log ~path c = write_file path (decision_log c)

(* ------------------------------------------------------------------ *)
(* CSV time series *)

let csv_series c =
  let r = make_renumber c in
  let series : (string, (float * float) list ref) Hashtbl.t =
    Hashtbl.create 16
  in
  let order = ref [] in
  let push name point =
    (match Hashtbl.find_opt series name with
    | Some l -> l := point :: !l
    | None ->
      Hashtbl.replace series name (ref [ point ]);
      order := name :: !order)
  in
  Array.iter
    (fun (e : Event.record) ->
      match e.kind with
      | Event.Rate_change ->
        push
          ("rate:" ^ r.label Event.Flow_scope e.id)
          (e.time, e.a /. 1e6)
      | Event.Mi_end ->
        push ("utility:" ^ r.label Event.Flow_scope e.id) (e.time, e.a)
      | Event.Cwnd ->
        push ("cwnd:" ^ r.label Event.Flow_scope e.id) (e.time, e.a)
      | Event.Enqueue | Event.Drop | Event.Queue_sample ->
        push ("queue:" ^ r.label Event.Link_scope e.id) (e.time, e.a)
      | Event.Gradient_step ->
        push ("gradient:" ^ r.label Event.Flow_scope e.id) (e.time, e.a)
      | Event.Dispatch | Event.Mi_start | Event.Mi_discard
      | Event.Flow_start | Event.Flow_stop | Event.Flow_complete
      | Event.Utility_switch ->
        ())
    (Collector.events c);
  List.rev_map
    (fun name ->
      let l = !(Hashtbl.find series name) in
      (name, Array.of_list (List.rev l)))
    !order
