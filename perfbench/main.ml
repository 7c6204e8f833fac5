(* perfbench: the standing benchmark of the Cypher server, over the wire.

   One run starts a [Server] over a [Store] in a scratch directory below
   the working directory, in a child process (this executable with
   [--serve DIR]), drives one seeded workload through one [Client]
   connection (closed loop), checks every answer against the benchmark's
   own model of the graph ({!Model}), crash-stops the server, times
   recovery, and prints one JSON line:

     {"correct": …, "attempted": …, "failed": …, "metrics": {…}}

   With [--trace 0] the metrics are the end-to-end ones; with
   [--trace 1] the same sequence runs with a span sink attached in
   alternate groups of rounds, and the metrics are the per-layer ledger.  See
   README.md for the workloads, the metrics and why the load has the
   shape it has. *)

module Value = Cypher_values.Value
module Graph = Cypher_graph.Graph
module Stats = Cypher_graph.Stats
module Table = Cypher_table.Table
module Record = Cypher_table.Record
module Engine = Cypher_engine.Engine
module Config = Cypher_semantics.Config
module Parser = Cypher_parser.Parser
module Session = Cypher_session.Session
module Store = Cypher_storage.Store
module Snapshot = Cypher_storage.Snapshot
module Wal = Cypher_storage.Wal
module Server = Cypher_server.Server
module Client = Cypher_server.Client
module Protocol = Cypher_server.Protocol
module Ivm = Cypher_ivm.Ivm
module Registry = Cypher_obs.Registry
module Trace = Cypher_obs.Trace
module Clock = Cypher_obs.Clock

let log fmt = Printf.eprintf (fmt ^^ "\n%!")

(* --- statistics ---------------------------------------------------------- *)

(* Linear interpolation between closest ranks. *)
let quantile q xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    let f = pos -. float_of_int i in
    if i + 1 < n then (a.(i) *. (1. -. f)) +. (a.(i + 1) *. f) else a.(i)

let median xs = quantile 0.5 xs

let mean xs =
  match xs with
  | [] -> nan
  | _ -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

(* The mean of the middle three fifths: the lowest and the highest fifth
   of [xs] left out. *)
let trimmed_mean xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let k = Array.length a / 5 in
  mean (Array.to_list (Array.sub a k (Array.length a - (2 * k))))

let elapsed_us t0 = float_of_int (Clock.now_ns () - t0) /. 1e3

(* [f ()] timed [reps] times; the median in seconds. *)
let time_median reps f =
  median
    (List.init reps (fun _ ->
         let t0 = Clock.now_ns () in
         ignore (Sys.opaque_identity (f ()));
         elapsed_us t0 /. 1e6))

(* --- statements ----------------------------------------------------------- *)

let q_lookup =
  "MATCH (p:Person {name: $name}) RETURN p.city AS city, p.hits AS hits"

let q_lookup_inline name =
  Printf.sprintf
    "MATCH (p:Person {name: '%s'}) RETURN p.city AS city, p.hits AS hits" name

let q_friends =
  "MATCH (p:Person {name: $name})-[:FRIEND]->(f) RETURN f.name AS friend"

let q_set =
  "MATCH (p:Person {name: $name}) SET p.hits = coalesce(p.hits, 0) + 1 \
   RETURN p.hits AS hits"

let q_merge =
  "MERGE (p:Person {name: $name}) ON CREATE SET p.city = $city, p.age = \
   $age, p.ups = 1 ON MATCH SET p.ups = coalesce(p.ups, 0) + 1 RETURN p.ups \
   AS ups"

let q_link =
  "MATCH (a:Person {name: $a}), (b:Person {name: $b}) CREATE \
   (a)-[:FRIEND {since: 2024, w: $w}]->(b)"

let q_read_back =
  "MATCH (p:Person {name: $name}) RETURN p.ups AS ups, p.city AS city"

let view_name = "people_by_city"
let q_view = "MATCH (p:Person) RETURN p.city AS city, count(*) AS n"

let q_scan =
  "MATCH (p:Person) RETURN p.city AS city, count(*) AS n ORDER BY city"

let q_hop =
  "MATCH (p:Person)-[:FRIEND]->(f:Person) RETURN f.city AS city, count(*) \
   AS n ORDER BY city"

let q_varlen =
  "MATCH (p:Person {name: $name})-[:FRIEND*1..3]->(f) RETURN count(*) AS n"

let q_shortest =
  "MATCH p = shortestPath((a:Person {name: $a})-[:FRIEND*]->(b:Person \
   {name: $b})) RETURN length(p) AS len"

let q_cheapest =
  "MATCH p = cheapestPath((a:Person {name: $a})-[:FRIEND*]->(b:Person \
   {name: $b}), 'w') RETURN reduce(c = 0, r IN relationships(p) | c + r.w) \
   AS cost"

let q_topk =
  "MATCH (p:Person) RETURN p.name AS name, p.age AS age ORDER BY age DESC, \
   name LIMIT 10"

type op =
  | Lookup of string
  | Lookup_inline of string
  | Friends of string
  | Set_hits of string
  | Merge of { name : string; city : string; age : int }
  | Link of { a : string; b : string; w : int }
  | Read_back of string
  | View_read
  | Scan_agg
  | Hop_agg
  | Varlen of string
  | Shortest of string * string
  | Cheapest of string * string
  | Topk

let kind_name = function
  | Lookup _ -> "lookup" | Lookup_inline _ -> "lookup-inline" | Friends _ -> "friends"
  | Set_hits _ -> "set" | Merge _ -> "merge" | Link _ -> "link"
  | Read_back _ -> "read-back" | View_read -> "view-read" | Scan_agg -> "scan-agg"
  | Hop_agg -> "hop-agg" | Varlen _ -> "varlen" | Shortest _ -> "shortest"
  | Cheapest _ -> "cheapest" | Topk -> "topk"

let is_write = function Set_hits _ | Merge _ | Link _ -> true | _ -> false

let s v = Value.String v

(* The statement and parameters an op sends ([View_read] is a view read,
   not a statement). *)
let statement = function
  | Lookup n -> (q_lookup, [ ("name", s n) ])
  | Lookup_inline n -> (q_lookup_inline n, [])
  | Friends n -> (q_friends, [ ("name", s n) ])
  | Set_hits n -> (q_set, [ ("name", s n) ])
  | Merge { name; city; age } ->
    (q_merge, [ ("name", s name); ("city", s city); ("age", Value.Int age) ])
  | Link { a; b; w } -> (q_link, [ ("a", s a); ("b", s b); ("w", Value.Int w) ])
  | Read_back n -> (q_read_back, [ ("name", s n) ])
  | View_read -> (q_view, [])
  | Scan_agg -> (q_scan, [])
  | Hop_agg -> (q_hop, [])
  | Varlen n -> (q_varlen, [ ("name", s n) ])
  | Shortest (a, b) -> (q_shortest, [ ("a", s a); ("b", s b) ])
  | Cheapest (a, b) -> (q_cheapest, [ ("a", s a); ("b", s b) ])
  | Topk -> (q_topk, [])

(* --- workloads ------------------------------------------------------------ *)

type tag =
  | T_lookup
  | T_inline
  | T_friends
  | T_set
  | T_merge_old
  | T_merge_new
  | T_link
  | T_read_back
  | T_view

type workload = {
  w_name : string;
  people : int;
  avg_out : int;
  round : tag list;
      (* one round of requests, in this order; every run is a whole
         number of rounds *)
  rounds_per_second : int;
      (* a run is [rounds_per_second * --seconds] rounds, the same for
         every commit, so a faster program finishes sooner rather than
         doing more work (which would lengthen the WAL recovery
         replays) *)
  blocks : int;
      (* the timed window is cut into this many runs of consecutive
         rounds, each holding about 100 or more reads and writes *)
  setups : int;  (* set-ups per run; setup_s is their median *)
  recoveries : int;  (* recoveries per run; recovery_s is their median *)
  view : bool;  (* maintain [q_view] on the server *)
}

(* Shares are chosen so that neither p50 nor p90 of reads or writes sits
   on the boundary between two request kinds of different cost, and the
   order is fixed so that the same requests follow each write in every
   run.  The point-read mix is chosen, not taken from traffic: reads sort
   as lookup (70%), lookup-inline (10%), friends (20%), so p50 is a
   cached parameterised lookup and p90 the middle of the friend lists.
   On upsert-ingest the view read and the read-back after it wait behind
   the server's post-commit work (a third of reads, ~50 us) and the
   other four read-backs do not (~30 us), so p50 is the fast reads' 75th
   percentile and p90 the slow third's 70th (see README.md). *)
let workloads =
  [
    {
      w_name = "point-read";
      people = 10_000;
      avg_out = 8;
      round =
        [ T_set; T_lookup; T_lookup; T_friends; T_lookup; T_lookup; T_inline;
          T_lookup; T_lookup; T_friends; T_lookup; T_lookup; T_lookup;
          T_friends; T_lookup; T_inline; T_lookup; T_lookup; T_friends;
          T_lookup; T_lookup ];
      rounds_per_second = 1500;
      blocks = 80;
      setups = 9;
      recoveries = 7;
      view = false;
    };
    {
      w_name = "upsert-ingest";
      people = 3_000;
      avg_out = 4;
      round =
        [ T_merge_old; T_merge_old; T_merge_old; T_merge_new; T_link; T_link;
          T_view; T_read_back; T_read_back; T_read_back; T_read_back; T_read_back ];
      rounds_per_second = 50;
      blocks = 40;
      setups = 9;
      recoveries = 3;
      view = true;
    };
  ]

let nproc = Domain.recommended_domain_count ()

(* The calling thread's CPU affinity (affinity_stubs.c).  A thread or
   process created afterwards inherits it. *)
external get_affinity : unit -> int list = "perfbench_get_affinity"
external set_affinity : int list -> bool = "perfbench_set_affinity"

(* Every CPU this process may use, read before [main] pins it to one. *)
let all_cpus = get_affinity ()

(* [f ()] with every CPU allowed, then back to the calling thread's
   current CPUs. *)
let with_all_cpus f =
  let mine = get_affinity () in
  ignore (set_affinity all_cpus);
  Fun.protect ~finally:(fun () -> ignore (set_affinity mine)) f

(* The whole seeded request sequence of a run, as rounds. *)
let generate_ops wl ~seed ~rounds =
  let rng = Random.State.make [| 0x0b5; seed; Hashtbl.hash wl.w_name |] in
  let pick () = Model.name_of (Random.State.int rng wl.people) in
  (* literal-inlined lookups draw from more distinct texts than the
     plan cache's 128 entries *)
  let inline_pool = Array.init 1024 (fun _ -> pick ()) in
  let created = ref 0 and merged = ref [] in
  let any_person () =
    let k = Random.State.int rng (wl.people + !created) in
    if k < wl.people then Model.name_of k else "n" ^ string_of_int (k - wl.people)
  in
  let city () = Model.cities.(Random.State.int rng (Array.length Model.cities)) in
  let op = function
    | T_lookup -> Lookup (pick ())
    | T_inline -> Lookup_inline inline_pool.(Random.State.int rng 1024)
    | T_friends -> Friends (pick ())
    | T_set -> Set_hits (pick ())
    | T_merge_old ->
      let name = pick () in
      merged := name :: !merged;
      Merge { name; city = city (); age = 30 }
    | T_merge_new ->
      let name = "n" ^ string_of_int !created in
      incr created;
      merged := name :: !merged;
      Merge { name; city = city (); age = 18 + Random.State.int rng 60 }
    | T_link ->
      let a = any_person () in
      let rec other () = let b = any_person () in if b = a then other () else b in
      Link { a; b = other (); w = 1 + Random.State.int rng 9 }
    | T_read_back -> (
      (* one of the keys the last four merges wrote *)
      match List.filteri (fun i _ -> i < 4) !merged with
      | [] -> Read_back (pick ())
      | recent -> Read_back (List.nth recent (Random.State.int rng (List.length recent))))
    | T_view -> View_read
  in
  List.init rounds (fun _ ->
      let ops = List.map op wl.round in
      merged := List.filteri (fun i _ -> i < 4) !merged;
      ops)

(* --- answers checked against the model ---------------------------------- *)

let opt_int n = if n = 0 then Value.Null else Value.Int n

let city_rows tbl =
  List.map (fun (c, n) -> [ s c; Value.Int n ]) (Model.sorted_counts tbl)

(* The columns of [op]'s answer, in RETURN order. *)
let columns_of = function
  | Lookup _ | Lookup_inline _ -> [ "city"; "hits" ]
  | Friends _ -> [ "friend" ]
  | Set_hits _ -> [ "hits" ]
  | Merge _ -> [ "ups" ]
  | Link _ -> []
  | Read_back _ -> [ "ups"; "city" ]
  | View_read | Scan_agg | Hop_agg -> [ "city"; "n" ]
  | Varlen _ -> [ "n" ]
  | Shortest _ -> [ "len" ]
  | Cheapest _ -> [ "cost" ]
  | Topk -> [ "name"; "age" ]

(* [rows] with their values in [wanted] column order; [None] when the
   answer's columns are not exactly [wanted]. *)
let reorder ~columns ~wanted rows =
  if List.sort compare columns <> List.sort compare wanted then None
  else
    let pos c =
      let rec go i = function
        | [] -> assert false
        | x :: rest -> if x = c then i else go (i + 1) rest
      in
      go 0 columns
    in
    let idx = List.map pos wanted in
    Some (List.map (fun row -> List.map (List.nth row) idx) rows)

(* Checks an answer to [op] against the model, and applies an
   acknowledged write to the model.  [true] iff the answer is right. *)
let check_and_apply (m : Model.t) op ~columns rows =
  let sorted = List.sort compare in
  let expect rows' =
    match reorder ~columns ~wanted:(columns_of op) rows with
    | Some rows -> rows = rows'
    | None -> false
  in
  let expect_bag rows' =
    match reorder ~columns ~wanted:(columns_of op) rows with
    | Some rows -> sorted rows = sorted rows'
    | None -> false
  in
  match op with
  | Lookup n | Lookup_inline n ->
    let i = Model.find m n in
    expect [ [ s m.city.(i); opt_int m.hits.(i) ] ]
  | Friends n -> expect_bag (List.map (fun f -> [ s f ]) (Model.friends m n))
  | Set_hits n ->
    let i = Model.find m n in
    m.hits.(i) <- m.hits.(i) + 1;
    expect [ [ Value.Int m.hits.(i) ] ]
  | Merge { name; city; age } -> (
    match Hashtbl.find_opt m.index name with
    | Some i ->
      m.ups.(i) <- m.ups.(i) + 1;
      expect [ [ Value.Int m.ups.(i) ] ]
    | None ->
      let i = Model.add_person m ~name ~city ~age in
      m.ups.(i) <- 1;
      expect [ [ Value.Int 1 ] ])
  | Link { a; b; w } ->
    ignore (Model.add_edge m ~src:(Model.find m a) ~tgt:(Model.find m b) ~w ~since:2024);
    rows = []
  | Read_back n ->
    let i = Model.find m n in
    expect [ [ opt_int m.ups.(i); s m.city.(i) ] ]
  | View_read -> expect_bag (city_rows m.city_count)
  | Scan_agg -> expect (city_rows m.city_count)
  | Hop_agg -> expect (city_rows m.in_city_count)
  | Varlen n -> expect [ [ Value.Int (Model.trails m n ~max_len:3) ] ]
  | Shortest (a, b) ->
    expect (match Model.bfs m a b with Some l -> [ [ Value.Int l ] ] | None -> [])
  | Cheapest (a, b) ->
    expect (match Model.dijkstra m a b with Some c -> [ [ Value.Int c ] ] | None -> [])
  | Topk -> expect (List.map (fun (n, a) -> [ s n; Value.Int a ]) (Model.top_by_age m 10))

(* --- the scratch directory ------------------------------------------------ *)

let rec remove_tree path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let mkdir_p path =
  let rec go p =
    if not (Sys.file_exists p) then begin
      go (Filename.dirname p);
      Sys.mkdir p 0o755
    end
  in
  go path

(* --- set-up --------------------------------------------------------------- *)

(* The Person/FRIEND graph of the model's generated state, with the
   Person(name) index. *)
let build_graph (m : Model.t) =
  let g = ref Graph.empty in
  let ids =
    Array.init m.count (fun i ->
        let g', id =
          Graph.add_node ~labels:[ "Person" ]
            ~props:
              [ ("name", s m.names.(i)); ("city", s m.city.(i));
                ("age", Value.Int m.age.(i)) ]
            !g
        in
        g := g';
        id)
  in
  Array.iter
    (fun (e : Model.edge) ->
      let g', _ =
        Graph.add_rel ~src:ids.(e.e_src) ~tgt:ids.(e.e_tgt) ~rel_type:"FRIEND"
          ~props:[ ("since", Value.Int e.e_since); ("w", Value.Int e.e_w) ]
          !g
      in
      g := g')
    m.initial_edges;
  Graph.create_index !g ~label:"Person" ~key:"name"

let ok_or_fail what = function Ok v -> v | Error e -> failwith (what ^ ": " ^ e)

let client_error e = Client.error_message e

let q_count = "MATCH (p:Person) RETURN count(*) AS n"

(* --- process figures -------------------------------------------------------- *)

let vm_hwm_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> nan
  | ic ->
    let rec scan () =
      match input_line ic with
      | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
          (fun kb -> float_of_int kb /. 1024.)
      | _ -> scan ()
      | exception End_of_file -> nan
    in
    let v = scan () in
    close_in ic;
    v

let registry_value name =
  List.fold_left
    (fun acc sample ->
      match sample with
      | Registry.Int_sample (n, v) when n = name -> float_of_int v
      | Registry.Float_sample (n, v) when n = name -> v
      | _ -> acc)
    0. (Registry.samples ())

let registry_delta names f =
  let before = List.map registry_value names in
  let r = f () in
  (r, List.map2 (fun n b -> registry_value n -. b) names before)

(* --- the server process ------------------------------------------------------ *)

(* The server runs in a child process (this executable with [--serve
   DIR]), so that the client, its model checks and its heap share
   neither the OCaml runtime lock nor the garbage collector with the
   server.  The child prints "<port> <open seconds>" once it listens,
   then answers one line per command read from its stdin. *)

let server_counters =
  [ "cypher_server_requests_total"; "cypher_server_bytes_out_total";
    "cypher_server_bytes_in_total"; "cypher_plan_cache_hits_total";
    "cypher_plan_cache_misses_total"; "cypher_engine_reference_fallback_total" ]

(* "name=value" pairs: the process's GC counters, its peak resident set
   and the registry series the ledger reads. *)
let stats_line () =
  let gc = Gc.quick_stat () in
  [ ("gc_minor_words", gc.Gc.minor_words);
    ("gc_major_collections", float_of_int gc.Gc.major_collections);
    ("gc_top_heap_words", float_of_int gc.Gc.top_heap_words);
    ("vm_hwm_mb", vm_hwm_mb ()) ]
  @ List.map (fun n -> (n, registry_value n)) server_counters
  |> List.map (fun (k, v) -> Printf.sprintf "%s=%.17g" k v)
  |> String.concat " "

let parse_stats line =
  List.filter_map
    (fun kv ->
      match String.index_opt kv '=' with
      | Some i ->
        Some (String.sub kv 0 i, float_of_string (String.sub kv (i + 1) (String.length kv - i - 1)))
      | None -> None)
    (String.split_on_char ' ' line)

(* [--serve DIR]: open (recover) the store, answer a first read, serve
   on an ephemeral port in the default configuration, obey commands:
   "sink on|off" attaches or detaches an in-memory span sink, "settle"
   runs a full major GC, "stats" reports {!stats_line}, "dump PATH"
   writes the collected spans, "kill" (or end of input) crash-stops. *)
let serve dir =
  let t0 = Clock.now_ns () in
  let store = ok_or_fail "open store" (Store.open_ dir) in
  ignore (ok_or_fail "first read" (Store.run store q_count));
  let open_s = elapsed_us t0 /. 1e6 in
  let server =
    ok_or_fail "start server"
      (Server.start ~config:{ Server.default_config with Server.port = 0 } store)
  in
  Printf.printf "%d %.17g\n%!" (Server.port server) open_s;
  let spans = ref [] and spans_m = Mutex.create () in
  let sink line =
    Mutex.lock spans_m;
    spans := line :: !spans;
    Mutex.unlock spans_m
  in
  let reply line = print_string line; print_newline () in
  let rec loop () =
    match input_line stdin with
    | "sink on" -> Trace.set_sink (Some sink); reply "ok"; loop ()
    | "sink off" -> Trace.set_sink None; reply "ok"; loop ()
    | "settle" -> Gc.full_major (); reply "ok"; loop ()
    | "stats" -> reply (stats_line ()); loop ()
    | cmd when String.length cmd > 5 && String.sub cmd 0 5 = "dump " ->
      Mutex.lock spans_m;
      let lines = List.rev !spans in
      Mutex.unlock spans_m;
      let oc = open_out (String.sub cmd 5 (String.length cmd - 5)) in
      List.iter (fun l -> output_string oc l; output_char oc '\n') lines;
      close_out oc;
      reply "ok";
      loop ()
    | "kill" | (exception End_of_file) -> Server.kill server
    | cmd -> failwith ("unknown command: " ^ cmd)
  in
  loop ()

type instance = {
  dir : string;
  pid : int;
  ctl_in : in_channel;
  ctl_out : out_channel;
  client : Client.t;
  open_s : float;  (* the child's Store.open_ plus first read *)
}

(* Children still running, stopped on the way out whatever happens. *)
let live = ref []

let command inst cmd =
  output_string inst.ctl_out (cmd ^ "\n");
  flush inst.ctl_out;
  input_line inst.ctl_in

let stop inst =
  Client.close inst.client;
  (try output_string inst.ctl_out "kill\n"; flush inst.ctl_out with Sys_error _ -> ());
  ignore (Unix.waitpid [] inst.pid);
  close_in_noerr inst.ctl_in;
  close_out_noerr inst.ctl_out;
  live := List.filter (fun i -> i.pid <> inst.pid) !live

let spawn dir =
  let child_in, to_child = Unix.pipe ~cloexec:true () in
  let from_child, child_out = Unix.pipe ~cloexec:true () in
  let exe = Sys.executable_name in
  let pid = Unix.create_process exe [| exe; "--serve"; dir |] child_in child_out Unix.stderr in
  Unix.close child_in;
  Unix.close child_out;
  let ctl_in = Unix.in_channel_of_descr from_child in
  let ctl_out = Unix.out_channel_of_descr to_child in
  let started =
    match String.split_on_char ' ' (input_line ctl_in) with
    | [ port; open_s ] -> Some (int_of_string port, float_of_string open_s)
    | _ | (exception End_of_file) -> None
  in
  match started with
  | None ->
    close_out_noerr ctl_out;
    ignore (Unix.waitpid [] pid);
    failwith ("server process did not start on " ^ dir)
  | Some (port, open_s) ->
    let client = ok_or_fail "connect" (Client.connect ~host:"127.0.0.1" ~port ()) in
    let inst = { dir; pid; ctl_in; ctl_out; client; open_s } in
    live := inst :: !live;
    inst

(* --- set-up --------------------------------------------------------------- *)

(* Generate the graph, write the snapshot, open the store, start the
   server, connect and answer the first request: what [setup_s] times. *)
let set_up (m : Model.t) dir =
  let t0 = Clock.now_ns () in
  mkdir_p dir;
  Snapshot.save (build_graph m) (Store.snapshot_file dir);
  let inst = spawn dir in
  let first = Model.name_of 0 in
  let answer =
    match Client.query ~params:[ ("name", s first) ] inst.client q_lookup with
    | Ok r -> r
    | Error e -> failwith ("first request: " ^ client_error e)
  in
  let secs = elapsed_us t0 /. 1e6 in
  if not (check_and_apply m (Lookup first) ~columns:answer.Client.columns answer.Client.rows) then
    failwith "first request: wrong answer";
  (inst, secs)

(* --- recovery and the acknowledged-write check -------------------------- *)

(* [table]'s rows as value lists in [columns] order (a table keeps its
   fields sorted by name), sorted. *)
let table_rows columns table =
  Table.fold_left
    (fun acc row -> List.map (Record.find_or_null row) columns :: acc)
    [] table
  |> List.sort compare

(* Every acknowledged write is in the recovered graph: people, edges,
   the city histogram and the per-key write counters all agree with the
   model.  Asked over the wire of a server on the recovered store. *)
let verify_recovered client (m : Model.t) =
  let rows ?(columns = [ "n" ]) q =
    match Client.query client q with
    | Error e -> failwith (q ^ ": " ^ client_error e)
    | Ok r -> (
      match reorder ~columns:r.Client.columns ~wanted:columns r.Client.rows with
      | Some rows -> List.sort compare rows
      | None -> [])
  in
  let counters (arr : int array) =
    List.sort compare
      (List.filter_map
         (fun i -> if arr.(i) = 0 then None else Some [ s m.names.(i); Value.Int arr.(i) ])
         (List.init m.count Fun.id))
  in
  let checks =
    [
      ("people", rows q_count = [ [ Value.Int m.count ] ]);
      ( "edges",
        rows "MATCH ()-[r:FRIEND]->() RETURN count(*) AS n" = [ [ Value.Int m.edges ] ] );
      ("cities", rows ~columns:[ "city"; "n" ] q_scan = city_rows m.city_count);
      ( "hits",
        rows ~columns:[ "n"; "h" ]
          "MATCH (p:Person) WHERE p.hits IS NOT NULL RETURN p.name AS n, p.hits AS h"
        = counters m.hits );
      ( "upserts",
        rows ~columns:[ "n"; "u" ]
          "MATCH (p:Person) WHERE p.ups IS NOT NULL RETURN p.name AS n, p.ups AS u"
        = counters m.ups );
    ]
  in
  List.iter (fun (what, ok) -> if not ok then log "recovery check failed: %s" what) checks;
  List.for_all snd checks

(* --- the run ------------------------------------------------------------------ *)

type sample = {
  op : op;
  rtt_us : float;
  block : int;  (* which of the timed window's blocks; -1 in warm-up *)
  traced : bool;  (* a span sink was attached *)
  trace_id : int;
  response : Protocol.response option;  (* kept for the codec timing *)
}

type run = {
  samples : sample list;
  attempted : int;
  failed : int;
  block_s : float array;  (* wall time of each block *)
  timed_ops : int;
  server : (string * float) list;  (* server-process deltas over the timed window *)
  rss_mb : float;  (* the server process's peak resident set *)
  heap_top_mb : float;
}

(* Sends every op in order, one at a time, timing each round trip.  The
   first fifth of the rounds warm the server up and are not timed.  In a
   traced run, alternate groups of ten rounds carry a span sink. *)
let drive ~traced wl (m : Model.t) inst rounds =
  let client = inst.client in
  let n_rounds = List.length rounds in
  let warm = n_rounds / 5 in
  let last_seq = ref 0 in
  let attempted = ref 0 and failed = ref 0 in
  let samples = ref [] in
  let keep = ref 0 in
  let blocks = wl.blocks in
  let block_start = Array.make (blocks + 1) 0 and server0 = ref [] in
  let block_of r = if r < warm then -1 else (r - warm) * blocks / (n_rounds - warm) in
  let sink = ref false in
  let set_sink on =
    if on <> !sink then begin
      ignore (command inst (if on then "sink on" else "sink off"));
      sink := on
    end
  in
  List.iteri
    (fun r ops ->
      if r = warm then begin
        ignore (command inst "settle");
        Gc.full_major ();
        server0 := parse_stats (command inst "stats")
      end;
      let block = block_of r in
      if block >= 0 && block <> block_of (r - 1) then block_start.(block) <- Clock.now_ns ();
      let tracing = traced && r >= warm && (r - warm) / 10 mod 2 = 0 in
      set_sink tracing;
      List.iter
        (fun op ->
          incr attempted;
          let trace_id = if traced then Trace.new_id () else 0 in
          if traced then Trace.set_context (Some { Trace.trace_id; parent_span = 0 });
          let text, params = statement op in
          let t0 = Clock.now_ns () in
          let result =
            match op with
            | View_read ->
              Client.view_read ~min_seq:!last_seq ~wait_ms:30_000 client ~name:view_name
            | _ -> Client.query ~params client text
          in
          let rtt_us = elapsed_us t0 in
          if traced then Trace.set_context None;
          let ok, response =
            match result with
            | Error e ->
              if !failed < 5 then log "%s failed: %s" text (client_error e);
              (false, None)
            | Ok r ->
              if is_write op then last_seq := max !last_seq r.Client.seq;
              let right =
                (* a key the model lacks means an earlier write failed *)
                try check_and_apply m op ~columns:r.Client.columns r.Client.rows
                with Not_found -> false
              in
              if (not right) && !failed < 5 then log "wrong answer to: %s" text;
              incr keep;
              let response =
                if !keep mod 8 = 0 then
                  Some
                    (Protocol.Result
                       { columns = r.Client.columns; rows = r.Client.rows; seq = r.Client.seq })
                else None
              in
              (right, response)
          in
          if not ok then incr failed;
          samples := { op; rtt_us; block; traced = tracing; trace_id; response } :: !samples)
        ops)
    rounds;
  block_start.(blocks) <- Clock.now_ns ();
  set_sink false;
  let server1 = parse_stats (command inst "stats") in
  let get l k = Option.value ~default:nan (List.assoc_opt k l) in
  let samples = List.rev !samples in
  {
    samples;
    attempted = !attempted;
    failed = !failed;
    block_s =
      Array.init blocks (fun b -> float_of_int (block_start.(b + 1) - block_start.(b)) /. 1e9);
    timed_ops = List.length (List.filter (fun x -> x.block >= 0) samples);
    server = List.map (fun (k, v) -> (k, v -. get !server0 k)) server1;
    rss_mb = get server1 "vm_hwm_mb";
    heap_top_mb = get server1 "gc_top_heap_words" *. float_of_int (Sys.word_size / 8) /. 1048576.;
  }

let latencies ~write ?(traced = false) run =
  List.filter_map
    (fun x ->
      if x.block >= 0 && is_write x.op = write && x.traced = traced then Some x.rtt_us
      else None)
    run.samples

(* --- the per-layer ledger ------------------------------------------------------ *)

(* The analytics queries, one per exec.* metric, with keys drawn from
   the seed among the generated people. *)
let exec_queries wl ~seed =
  let rng = Random.State.make [| 0xe8ec; seed; Hashtbl.hash wl.w_name |] in
  let pick () = Model.name_of (Random.State.int rng wl.people) in
  let pair () =
    let a = pick () in
    let rec other () = let b = pick () in if b = a then other () else b in
    (a, other ())
  in
  let v = pick () in
  let sa, sb = pair () in
  let ca, cb = pair () in
  [
    ("exec.scan_agg_ms", Scan_agg); ("exec.hop_agg_ms", Hop_agg);
    ("exec.varlen_ms", Varlen v); ("exec.shortest_ms", Shortest (sa, sb));
    ("exec.cheapest_ms", Cheapest (ca, cb)); ("exec.topk_ms", Topk);
  ]

let config_of ?(parallel = 1) params =
  Config.with_parallel parallel (Config.with_params params Config.default)

(* A loopback echo of request- and response-sized frames through the
   same framing code: the part of a round trip spent in the kernel's
   TCP path and thread wake-ups, with no server logic. *)
let tcp_echo_us ~request_bytes ~response_bytes =
  let listen = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt listen Unix.SO_REUSEADDR true;
  Unix.bind listen (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen listen 1;
  let port = match Unix.getsockname listen with Unix.ADDR_INET (_, p) -> p | _ -> 0 in
  let reply = String.make (max 1 response_bytes) 'r' in
  let echo =
    Thread.create
      (fun () ->
        let fd, _ = Unix.accept listen in
        let rec loop () =
          match Protocol.read_frame fd with
          | Some _ -> Protocol.write_frame fd reply; loop ()
          | None -> ()
          | exception _ -> ()
        in
        loop ();
        Unix.close fd)
      ()
  in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  let request = String.make (max 1 request_bytes) 'q' in
  let times =
    List.init 3000 (fun _ ->
        let t0 = Clock.now_ns () in
        Protocol.write_frame fd request;
        ignore (Protocol.read_frame fd);
        elapsed_us t0)
  in
  Unix.close fd;
  Thread.join echo;
  Unix.close listen;
  median (List.filteri (fun i _ -> i >= 500) times)

(* The steps of a request that no span covers, timed from outside on
   [ops] — the requests' own statements, run against [final]: request
   and response codec, statement classification, the table-to-frame
   conversion and the statement-statistics update.  Mean of per-request
   medians, in us. *)
let unspanned_steps final ops =
  let cache = Engine.create_plan_cache () in
  let steps = [| []; []; []; []; [] |] in
  let time i f =
    let per =
      List.init 3 (fun _ ->
          let t0 = Clock.now_ns () in
          ignore (Sys.opaque_identity (f ()));
          elapsed_us t0)
    in
    steps.(i) <- median per :: steps.(i)
  in
  List.iter
    (fun op ->
      if op <> View_read then begin
        let text, params = statement op in
        let options = [ ("trace_id", Value.Int 1); ("span_id", Value.Int 2) ] in
        let request = Protocol.Query { text; params; options } in
        time 0 (fun () -> Protocol.decode_request (Protocol.encode_request request));
        ignore (Engine.classify_cached ~cache text);
        time 1 (fun () -> Engine.classify_cached ~cache text);
        match Engine.query_cached ~cache ~config:(config_of params) final text with
        | Error _ -> ()
        | Ok outcome ->
          let table = outcome.Engine.table in
          time 2 (fun () -> Server.table_response table);
          let response = Server.table_response table in
          time 3 (fun () -> Protocol.decode_response (Protocol.encode_response response));
          time 4 (fun () ->
              Cypher_obs.Qstats.observe ~text ~elapsed_us:1 ~rows:(Table.row_count table)
                ~db_hits:0 ~cache_hit:true ~error:false ~trace:0)
      end)
    ops;
  List.mapi
    (fun i name -> (name, if steps.(i) = [] then 0. else mean steps.(i)))
    [ "request codec (encode+decode)"; "Engine.classify_cached";
      "Server.table_response"; "response codec (encode+decode)";
      "Qstats.observe" ]

let ledger_file wl = Filename.concat ".perfbench_out" ("ledger-" ^ wl.w_name ^ ".txt")

(* Every per-layer metric of one traced run, and the number of analytics
   answers that disagreed with the model.  [start_snapshot] is the
   snapshot file the run started from; [final] the last committed graph;
   [wal] the run's log; [spans] the server's span lines. *)
let layer_metrics wl (m : Model.t) ~seed rounds run ~spans ~start_snapshot ~final
    ~wal ~scratch =
  let spans = List.map Spans.parse spans in
  let reg name = Option.value ~default:0. (List.assoc_opt name run.server) in
  let metrics = ref [] in
  let add name unit v = metrics := (name, unit, v) :: !metrics in
  let queries = List.filter (fun x -> x.block >= 0 && not x.traced && x.op <> View_read) run.samples in
  let read_queries = List.filter (fun x -> not (is_write x.op)) queries in
  (* Server/Protocol/Client: the round trip beyond the engine's own time
     for the same statements on one snapshot *)
  let cache = Engine.create_plan_cache () in
  let engine_us =
    List.map
      (fun x ->
        let text, params = statement x.op in
        let t0 = Clock.now_ns () in
        ignore (Engine.query_cached ~cache ~config:(config_of params) final text);
        elapsed_us t0)
      read_queries
  in
  let rtt_p50 = median (List.map (fun x -> x.rtt_us) read_queries) in
  add "server.wire_us" "us" (rtt_p50 -. median engine_us);
  (* Protocol + Codec on the run's own result frames *)
  add "protocol.codec_us" "us"
    (median
       (List.filter_map
          (fun x ->
            Option.map
              (fun r ->
                median
                  (List.init 5 (fun _ ->
                       let t0 = Clock.now_ns () in
                       ignore (Sys.opaque_identity (Protocol.decode_response (Protocol.encode_response r)));
                       elapsed_us t0)))
              x.response)
          run.samples));
  let requests = reg "cypher_server_requests_total" in
  let bytes_out = reg "cypher_server_bytes_out_total" /. requests in
  let bytes_in = reg "cypher_server_bytes_in_total" /. requests in
  add "protocol.response_bytes" "bytes" bytes_out;
  let hits = reg "cypher_plan_cache_hits_total" and misses = reg "cypher_plan_cache_misses_total" in
  add "plan_cache.hit_ratio" "ratio" (hits /. (hits +. misses));
  (* plan cache: the whole request stream replayed through one session *)
  let start_graph = ok_or_fail "load snapshot" (Snapshot.load start_snapshot) in
  let session = Session.create start_graph in
  List.iter
    (List.iter (fun op ->
         if op <> View_read then begin
           let text, params = statement op in
           Session.set_params session params;
           ignore (Session.run session text)
         end))
    rounds;
  add "plan_cache.replans" "count" (float_of_int (Session.cache_stats session).Engine.cache_replans);
  add "engine.reference_fallbacks" "count" (reg "cypher_engine_reference_fallback_total");
  (* Parser on every distinct statement text of the run *)
  let texts = Hashtbl.create 1024 in
  List.iter (List.iter (fun op -> Hashtbl.replace texts (fst (statement op)) ())) rounds;
  let parse_us =
    Hashtbl.fold
      (fun text () acc ->
        median
          (List.init 5 (fun _ ->
               let t0 = Clock.now_ns () in
               ignore (Parser.parse_query text);
               elapsed_us t0))
        :: acc)
      texts []
  in
  add "parser.parse_us" "us" (median parse_us);
  add "planner.compile_us" "us" (median (Spans.durations "plan" spans));
  add "stats.collect_us" "us"
    (1e6 *. median [ time_median 5 (fun () -> Stats.collect start_graph);
                     time_median 5 (fun () -> Stats.collect final) ]);
  (* Exec, Graph and Par_exec on the analytics queries, each answer
     checked against the model (BFS, Dijkstra, trail count, sort) *)
  let db_hits = ref 0 and rows = ref 0 and seq_s = ref 0. and par_s = ref 0. in
  let wrong = ref 0 in
  List.iter
    (fun (name, op) ->
      let text, params = statement op in
      let run_at parallel () =
        Engine.query ~config:(config_of ~parallel params) final text
      in
      let h0 = Graph.db_hits () in
      Graph.count_db_hits true;
      (match run_at 1 () with
      | Ok o -> (
        rows := !rows + Table.row_count o.Engine.table;
        match Server.table_response o.Engine.table with
        | Protocol.Result { columns; rows; _ } when check_and_apply m op ~columns rows -> ()
        | _ -> incr wrong; log "wrong answer to: %s" text)
      | Error e -> incr wrong; log "%s: %s" text e);
      Graph.count_db_hits false;
      db_hits := !db_hits + (Graph.db_hits () - h0);
      let sq = time_median 3 (run_at 1) in
      let par = with_all_cpus (fun () -> time_median 3 (run_at nproc)) in
      seq_s := !seq_s +. sq;
      par_s := !par_s +. par;
      add name "ms" (sq *. 1e3))
    (exec_queries wl ~seed);
  add "exec.db_hits_per_row" "count" (float_of_int !db_hits /. float_of_int (max 1 !rows));
  add "par_exec.speedup" "ratio" (!seq_s /. !par_s);
  (* Session + Clauses: MERGE upserts of existing keys, no fsync *)
  let merge_session = Session.create final in
  let rng = Random.State.make [| 0x3e9; m.count |] in
  let merge_hits = ref 0 in
  let merge_us =
    List.init 200 (fun _ ->
        let name = m.names.(Random.State.int rng m.count) in
        Session.set_params merge_session
          [ ("name", s name); ("city", s "Oslo"); ("age", Value.Int 30) ];
        let h0 = Graph.db_hits () in
        Graph.count_db_hits true;
        let t0 = Clock.now_ns () in
        ignore (Session.run merge_session q_merge);
        let dt = elapsed_us t0 in
        Graph.count_db_hits false;
        merge_hits := !merge_hits + (Graph.db_hits () - h0);
        dt)
  in
  add "session.merge_us" "us" (median merge_us);
  add "graph.db_hits_per_merge" "count" (float_of_int !merge_hits /. 200.);
  (* Wal *)
  add "wal.append_us" "us" (median (Spans.durations "wal_append" spans));
  let scan = ok_or_fail "scan wal" (Wal.scan wal) in
  let records = scan.Wal.records in
  let n_records = float_of_int (max 1 (List.length records)) in
  add "wal.bytes_per_record" "bytes" (float_of_int scan.Wal.valid_len /. n_records);
  let t0 = Clock.now_ns () in
  ignore (ok_or_fail "replay" (Wal.replay start_graph records));
  add "wal.replay_us_per_record" "us" (elapsed_us t0 /. n_records);
  (* Snapshot *)
  add "snapshot.decode_s" "s" (time_median 3 (fun () -> Snapshot.load start_snapshot));
  add "snapshot.encode_s" "s" (time_median 3 (fun () -> Snapshot.encode start_graph));
  (* Store (replica apply) and Ivm: the run's records applied in
     fetch-sized batches to a store opened from the starting snapshot,
     with the city view maintained *)
  let rdir = Filename.concat scratch "replica" in
  mkdir_p rdir;
  Snapshot.save start_graph (Store.snapshot_file rdir);
  let rstore = ok_or_fail "open replica" (Store.open_ rdir) in
  let views = Ivm.attach rstore in
  ignore (ok_or_fail "materialize" (Ivm.materialize views ~name:view_name ~query:q_view));
  let ivm_names =
    [ "cypher_view_refresh_us_count"; "cypher_view_refresh_us_sum_us";
      "cypher_view_refresh_total"; "cypher_view_refresh_incremental_total" ]
  in
  let apply_s, ivm =
    registry_delta ivm_names (fun () ->
        let t0 = Clock.now_ns () in
        let rec batches = function
          | [] -> ()
          | l ->
            let batch = List.filteri (fun i _ -> i < 64) l in
            ok_or_fail "apply" (Store.apply_replicated rstore batch);
            batches (List.filteri (fun i _ -> i >= 64) l)
        in
        batches records;
        let applied = elapsed_us t0 /. 1e6 in
        (match Ivm.read ~min_seq:(Store.last_seq rstore) ~wait_ms:60_000 views view_name with
        | Ok (table, _) ->
          if table_rows [ "city"; "n" ] table <> city_rows m.city_count then
            log "replica view disagrees with the model"
        | Error _ -> log "replica view unreadable");
        applied)
  in
  Ivm.shutdown views;
  Store.close rstore;
  add "replica.apply_us_per_record" "us" (apply_s *. 1e6 /. n_records);
  (match ivm with
  | [ count; sum_us; total; incremental ] ->
    add "ivm.refresh_us" "us" (sum_us /. max 1. count);
    add "ivm.incremental_ratio" "ratio" (incremental /. max 1. total)
  | _ -> ());
  (* OCaml runtime over the timed window *)
  add "gc.minor_words_per_op" "words" (reg "gc_minor_words" /. float_of_int run.timed_ops);
  add "gc.major_collections" "count" (reg "gc_major_collections");
  add "gc.heap_top_mb" "MB" run.heap_top_mb;
  (* tracing overhead: traced blocks against untraced blocks *)
  let untraced_read = median (latencies ~write:false run) in
  let traced_read = median (latencies ~write:false ~traced:true run) in
  add "obs.trace_overhead_pct" "%" (100. *. ((traced_read /. untraced_read) -. 1.));
  (* the ledger: self time per layer along the blocking steps of the
     requests around the traced median, against the untraced median *)
  let echo = tcp_echo_us ~request_bytes:(int_of_float bytes_in) ~response_bytes:(int_of_float bytes_out) in
  add "ledger.tcp_loopback_us" "us" echo;
  let selfs = Spans.self_times spans in
  let oc = (mkdir_p ".perfbench_out"; open_out (ledger_file wl)) in
  Printf.fprintf oc "# %s: self time per layer around the median request (us)\n" wl.w_name;
  List.iter
    (fun (cls, write) ->
      let traced = List.filter (fun x -> x.block >= 0 && x.traced && is_write x.op = write) run.samples in
      if traced <> [] then begin
        let rtts = List.map (fun x -> x.rtt_us) traced in
        let lo = quantile 0.4 rtts and hi = quantile 0.6 rtts in
        let band = List.filter (fun x -> x.rtt_us >= lo && x.rtt_us <= hi) traced in
        let span_self n =
          mean
            (List.map
               (fun x ->
                 match Hashtbl.find_opt selfs (Trace.id_to_hex x.trace_id) with
                 | Some per -> float_of_int (List.assoc n per)
                 | None -> 0.)
               band)
        in
        let untraced = median (latencies ~write run) in
        let named =
          List.map (fun n -> ((if n = "query" then "span query (self: cache, update clauses)" else "span " ^ n), span_self n)) Spans.blocking
          @ unspanned_steps final (List.map (fun x -> x.op) band)
          @ [ ("tcp loopback echo", echo) ]
        in
        (* the spans carry the tracing cost, so the band's remainder is
           also the part of the untraced median no layer accounts for *)
        let band_us = mean (List.map (fun x -> x.rtt_us) band) in
        let attributed = List.fold_left (fun acc (_, v) -> acc +. v) 0. named in
        let rest = band_us -. attributed in
        Printf.fprintf oc
          "\n%s: untraced p50 %.1f us; traced p40-p60 band mean %.1f us over %d requests \
           (tracing adds %.1f us)\n"
          cls untraced band_us (List.length band) (band_us -. untraced);
        List.iter
          (fun (n, v) -> if v > 0. then Printf.fprintf oc "  %-34s %10.1f  %5.1f%%\n" n v (100. *. v /. band_us))
          named;
        Printf.fprintf oc "  %-34s %10.1f  %5.1f%%\n" "unattributed" rest (100. *. rest /. band_us);
        add ("ledger." ^ cls ^ "_unattributed_us") "us" rest
      end)
    [ ("read", false); ("write", true) ];
  close_out oc;
  (List.rev !metrics, !wrong)

(* --- main --------------------------------------------------------------------- *)


let json_metrics metrics =
  String.concat ", "
    (List.map
       (fun (name, unit, v) ->
         if not (Float.is_finite v) then failwith (name ^ " was not measured");
         Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit)
       metrics)

let main ~workload ~seed ~seconds ~traced =
  let wl =
    match List.find_opt (fun w -> w.w_name = workload) workloads with
    | Some w -> w
    | None ->
      failwith
        (Printf.sprintf "unknown workload %S (known: %s)" workload
           (String.concat ", " (List.map (fun w -> w.w_name) workloads)))
  in
  let scratch =
    Filename.concat ".perfbench_tmp" (string_of_int (Unix.getpid ()))
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun i -> try stop i with _ -> ()) !live;
      remove_tree scratch;
      try Sys.rmdir ".perfbench_tmp" with Sys_error _ -> ())
  @@ fun () ->
  (* The client and every server process it spawns run on one CPU, the
     last this process may use: a round trip is then a local wake-up
     (the server's thread runs when the client blocks) instead of a
     wake-up of an idle virtual CPU, whose cost follows the host's load
     (see README.md).  The traced run's width-[nproc] timings get every
     CPU back. *)
  (match List.rev all_cpus with
   | last :: _ :: _ when set_affinity [ last ] ->
     log "%s: client and server on CPU %d" wl.w_name last
   | _ -> ());
  let model = Model.generate ~seed ~people:wl.people ~avg_out:wl.avg_out in
  let rounds = generate_ops wl ~seed ~rounds:(max (5 * wl.blocks) (wl.rounds_per_second * seconds)) in
  (* set up [setups] times; the last instance serves the run *)
  let setup_times, inst =
    let rec go k acc =
      let inst, secs = set_up model (Filename.concat scratch ("db" ^ string_of_int k)) in
      if k = wl.setups then (List.rev (secs :: acc), inst)
      else begin
        stop inst;
        remove_tree inst.dir;
        go (k + 1) (secs :: acc)
      end
    in
    go 1 []
  in
  if wl.view then
    ignore
      (ok_or_fail "materialize"
         (Result.map_error client_error
            (Client.materialize inst.client ~name:view_name ~query:q_view)));
  log "%s: seed %d, %d rounds of %d requests" wl.w_name seed (List.length rounds)
    (List.length wl.round);
  let run = drive ~traced wl model inst rounds in
  let spans_file = Filename.concat scratch "spans.jsonl" in
  if traced then ignore (command inst ("dump " ^ spans_file));
  stop inst;
  (* recovery: a fresh server process on the crashed directory, timed
     from Store.open_ to the first answered read, [recoveries] times *)
  let recovered = ref true in
  let recovery_times =
    List.init wl.recoveries (fun k ->
        let r = spawn inst.dir in
        if k = 0 then recovered := verify_recovered r.client model;
        stop r;
        r.open_s)
  in
  let metrics, exec_wrong =
    if traced then begin
      let store = ok_or_fail "reopen" (Store.open_ inst.dir) in
      let final = Store.snapshot store in
      Store.close store;
      let ic = open_in spans_file in
      let rec lines acc = match input_line ic with l -> lines (l :: acc) | exception End_of_file -> List.rev acc in
      let spans = lines [] in
      close_in ic;
      (mkdir_p ".perfbench_out";
       let oc = open_out (Filename.concat ".perfbench_out" ("spans-" ^ wl.w_name ^ ".jsonl")) in
       List.iter (fun l -> output_string oc l; output_char oc '\n') spans;
       close_out oc);
      layer_metrics wl model ~seed rounds run ~spans
        ~start_snapshot:(Store.snapshot_file inst.dir) ~final
        ~wal:(Store.wal_file inst.dir) ~scratch
    end
    else begin
      (* Each latency figure is taken per block of consecutive rounds,
         and the 20%-trimmed mean over the blocks is reported: a few
         blocks hit by a stall of the shared host are left out, and
         stretches of different disk speed within the run are averaged
         rather than one of them picked, as a median over blocks would.
         Whole-run percentiles, the blocks' median and better decile go
         to stderr beside it.  Write p90 and throughput go to stderr
         only: on point-read both follow the shared disk's fsync tail
         and spread past any bound between runs of the same code
         (README.md, "Dropped metrics"). *)
      let per_block q write =
        List.init wl.blocks (fun b ->
            quantile q
              (List.filter_map
                 (fun x -> if x.block = b && is_write x.op = write then Some x.rtt_us else None)
                 run.samples))
      in
      let rates =
        List.init wl.blocks (fun b ->
            float_of_int (List.length (List.filter (fun x -> x.block = b) run.samples))
            /. run.block_s.(b))
      in
      let latency name q write =
        let blocks = per_block q write in
        log "  %-16s whole run %9.1f  blocks: low decile %9.1f  median %9.1f  trimmed mean %9.1f us"
          name (quantile q (latencies ~write run)) (quantile 0.1 blocks) (median blocks)
          (trimmed_mean blocks);
        (name, "us", trimmed_mean blocks)
      in
      log "  throughput_ops_s high decile of blocks %.1f  median of blocks %.1f" (quantile 0.9 rates)
        (median rates);
      ignore (latency "write_p90_us" 0.9 true);
      ( [
          ("setup_s", "s", median setup_times);
          latency "read_p50_us" 0.5 false;
          latency "read_p90_us" 0.9 false;
          latency "write_p50_us" 0.5 true;
          ("recovery_s", "s", median recovery_times);
          ("rss_peak_mb", "MB", run.rss_mb);
        ],
        0 )
    end
  in
  (* per request kind, to stderr: where the percentiles come from *)
  let kinds = List.sort_uniq compare (List.map (fun x -> kind_name x.op) run.samples) in
  List.iter
    (fun k ->
      let l = List.filter_map (fun x -> if x.block >= 0 && kind_name x.op = k then Some x.rtt_us else None) run.samples in
      log "  %-14s n=%-7d p10 %9.1f  p50 %9.1f  p90 %9.1f us" k (List.length l)
        (quantile 0.1 l) (quantile 0.5 l) (quantile 0.9 l))
    kinds;
  List.iter (fun (n, u, v) -> log "  %-28s %14.3f %s" n v u) metrics;
  (* in a traced run, the six analytics answers count as operations *)
  let attempted = run.attempted + if traced then List.length (exec_queries wl ~seed) else 0 in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    !recovered attempted (run.failed + exec_wrong) (json_metrics metrics)

let () =
  if Array.length Sys.argv = 3 && Sys.argv.(1) = "--serve" then begin
    match serve Sys.argv.(2) with
    | () -> exit 0
    | exception e ->
      log "perfbench server: %s" (Printexc.to_string e);
      exit 1
  end;
  let workload = ref "" and seed = ref 1 and seconds = ref 20 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " point-read | upsert-ingest");
      ("--seed", Arg.Set_int seed, " workload seed (graph and request sequence)");
      ("--seconds", Arg.Set_int seconds, " nominal run length; fixes the number of rounds");
      ("--trace", Arg.Set_int trace, " 1: print the per-layer ledger instead");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME --seed N --seconds S --trace 0|1";
  match main ~workload:!workload ~seed:!seed ~seconds:(max 1 !seconds) ~traced:(!trace = 1) with
  | () -> exit 0
  | exception e ->
    log "perfbench: %s" (Printexc.to_string e);
    exit 1
