(* Span lines collected through [Trace.set_sink] while the traced run is
   in progress, and the per-request self times derived from them.  A
   span's self time is its duration minus the durations of the blocking
   spans directly under it. *)

type span = {
  name : string;
  dur_us : int;
  trace_id : string;
  span_id : string;
  parent : string;
}

(* The value of ["key":…] in one flat JSON span line: a quoted string
   (returned without quotes) or a bare integer; "" when absent. *)
let field line key =
  let pat = "\"" ^ key ^ "\":" in
  let lp = String.length pat and ll = String.length line in
  let rec find i =
    if i + lp > ll then None
    else if String.sub line i lp = pat then Some (i + lp)
    else find (i + 1)
  in
  match find 0 with
  | None -> ""
  | Some i when i < ll && line.[i] = '"' ->
    let j = String.index_from line (i + 1) '"' in
    String.sub line (i + 1) (j - i - 1)
  | Some i ->
    let j = ref i in
    while !j < ll && (line.[!j] = '-' || (line.[!j] >= '0' && line.[!j] <= '9')) do
      incr j
    done;
    String.sub line i (!j - i)

let parse line =
  {
    name = field line "name";
    dur_us = (match int_of_string_opt (field line "dur_us") with Some d -> d | None -> 0);
    trace_id = field line "trace_id";
    span_id = field line "span_id";
    parent = field line "parent_span_id";
  }

(* The spans a request waits on, in the order a request meets them.
   Others (view refresh, commit-durable markers, parallel worker time
   summed over domains) run beside the request, not in its path. *)
let blocking =
  [ "query"; "parse"; "plan"; "execute"; "writer_lock"; "commit";
    "group_commit"; "wal_append"; "fsync" ]

let is_blocking s = List.mem s.name blocking

(* Self time per blocking span name, summed per trace id. *)
let self_times (spans : span list) =
  let by_trace = Hashtbl.create 4096 in
  List.iter
    (fun s ->
      if s.trace_id <> "" && is_blocking s then
        Hashtbl.replace by_trace s.trace_id
          (s :: Option.value ~default:[] (Hashtbl.find_opt by_trace s.trace_id)))
    spans;
  let result = Hashtbl.create (Hashtbl.length by_trace) in
  Hashtbl.iter
    (fun trace ss ->
      let child = Hashtbl.create 8 in
      List.iter
        (fun s ->
          if s.parent <> "" then
            Hashtbl.replace child s.parent
              (s.dur_us + Option.value ~default:0 (Hashtbl.find_opt child s.parent)))
        ss;
      let per_name =
        List.map
          (fun n ->
            ( n,
              List.fold_left
                (fun acc s ->
                  if s.name = n then
                    acc + s.dur_us
                    - Option.value ~default:0 (Hashtbl.find_opt child s.span_id)
                  else acc)
                0 ss ))
          blocking
      in
      Hashtbl.replace result trace per_name)
    by_trace;
  result

let durations name spans =
  List.filter_map
    (fun s -> if s.name = name then Some (float_of_int s.dur_us) else None)
    spans
