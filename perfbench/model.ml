(* The benchmark's own picture of the graph it generated, kept apart
   from the engine so that every answer the server gives can be checked
   against an independent computation: lookups and friend lists against
   the adjacency kept here, aggregates against histograms maintained on
   every acknowledged write, shortest and cheapest paths against a BFS
   and a Dijkstra written below. *)

let cities =
  [| "Amsterdam"; "Berlin"; "Cairo"; "Delhi"; "Edinburgh"; "Florence";
     "Geneva"; "Helsinki"; "Istanbul"; "Jakarta"; "Kyoto"; "Lima"; "Madrid";
     "Nairobi"; "Oslo"; "Prague" |]

type edge = { e_id : int; e_src : int; e_tgt : int; e_w : int; e_since : int }

type t = {
  mutable count : int;  (* people, including those created by MERGE *)
  mutable names : string array;
  mutable city : string array;
  mutable age : int array;
  mutable out : edge list array;  (* newest first *)
  mutable hits : int array;  (* acknowledged SET increments *)
  mutable ups : int array;  (* acknowledged MERGE upserts *)
  index : (string, int) Hashtbl.t;
  city_count : (string, int) Hashtbl.t;  (* people per city *)
  in_city_count : (string, int) Hashtbl.t;  (* FRIEND edges per target city *)
  mutable edges : int;
  mutable initial_edges : edge array;  (* the generated edges, in id order *)
}

let name_of i = "p" ^ string_of_int i

let bump tbl k d =
  Hashtbl.replace tbl k (d + Option.value ~default:0 (Hashtbl.find_opt tbl k))

let grow m =
  let cap = Array.length m.names in
  if m.count = cap then begin
    let ext a fill = Array.append a (Array.make (max 16 cap) fill) in
    m.names <- ext m.names "";
    m.city <- ext m.city "";
    m.age <- ext m.age 0;
    m.out <- ext m.out [];
    m.hits <- ext m.hits 0;
    m.ups <- ext m.ups 0
  end

let add_person m ~name ~city ~age =
  grow m;
  let i = m.count in
  m.names.(i) <- name;
  m.city.(i) <- city;
  m.age.(i) <- age;
  m.count <- i + 1;
  Hashtbl.replace m.index name i;
  bump m.city_count city 1;
  i

let add_edge m ~src ~tgt ~w ~since =
  let e = { e_id = m.edges; e_src = src; e_tgt = tgt; e_w = w; e_since = since } in
  m.edges <- m.edges + 1;
  m.out.(src) <- e :: m.out.(src);
  bump m.in_city_count m.city.(tgt) 1;
  e

(* [people] Person nodes with a unique [name], a [city] and an [age];
   [people * avg_out] directed FRIEND edges between distinct people,
   each with a [since] year and a positive weight [w].  Deterministic in
   [seed]. *)
let generate ~seed ~people ~avg_out =
  let rng = Random.State.make [| 0x5eed; seed; people; avg_out |] in
  let m =
    {
      count = 0;
      names = [||];
      city = [||];
      age = [||];
      out = [||];
      hits = [||];
      ups = [||];
      index = Hashtbl.create (2 * people);
      city_count = Hashtbl.create 16;
      in_city_count = Hashtbl.create 16;
      edges = 0;
      initial_edges = [||];
    }
  in
  for i = 0 to people - 1 do
    ignore
      (add_person m ~name:(name_of i)
         ~city:cities.(Random.State.int rng (Array.length cities))
         ~age:(18 + Random.State.int rng 60))
  done;
  let edges =
    Array.init (people * avg_out) (fun _ ->
        let src = Random.State.int rng people in
        let tgt = (src + 1 + Random.State.int rng (people - 1)) mod people in
        add_edge m ~src ~tgt
          ~w:(1 + Random.State.int rng 9)
          ~since:(1990 + Random.State.int rng 30))
  in
  m.initial_edges <- edges;
  m

let find m name = Hashtbl.find m.index name

(* Names of [name]'s FRIEND targets, as a sorted multiset. *)
let friends m name =
  List.sort compare (List.map (fun e -> m.names.(e.e_tgt)) m.out.(find m name))

let sorted_counts tbl =
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

(* Number of relationship-distinct paths of 1 to [max_len] FRIEND hops
   out of [name] — Cypher's variable-length match never repeats a
   relationship within one path. *)
let trails m name ~max_len =
  let used = Hashtbl.create 16 in
  let rec go v depth =
    if depth = max_len then 0
    else
      List.fold_left
        (fun acc e ->
          if Hashtbl.mem used e.e_id then acc
          else begin
            Hashtbl.add used e.e_id ();
            let n = 1 + go e.e_tgt (depth + 1) in
            Hashtbl.remove used e.e_id;
            acc + n
          end)
        0 m.out.(v)
  in
  go (find m name) 0

(* Fewest FRIEND hops from [a] to [b] (a <> b), by breadth-first search. *)
let bfs m a b =
  let src = find m a and dst = find m b in
  let dist = Array.make m.count (-1) in
  let q = Queue.create () in
  dist.(src) <- 0;
  Queue.add src q;
  let found = ref None in
  while !found = None && not (Queue.is_empty q) do
    let v = Queue.pop q in
    List.iter
      (fun e ->
        if dist.(e.e_tgt) < 0 then begin
          dist.(e.e_tgt) <- dist.(v) + 1;
          if e.e_tgt = dst then found := Some dist.(e.e_tgt);
          Queue.add e.e_tgt q
        end)
      m.out.(v)
  done;
  !found

(* Least total [w] over FRIEND paths from [a] to [b] (a <> b), by
   Dijkstra's algorithm over a binary heap. *)
let dijkstra m a b =
  let src = find m a and dst = find m b in
  let dist = Array.make m.count max_int in
  let heap = ref [||] and size = ref 0 in
  let swap i j =
    let t = !heap.(i) in
    !heap.(i) <- !heap.(j);
    !heap.(j) <- t
  in
  let push x =
    if !size = Array.length !heap then
      heap := Array.append !heap (Array.make (max 16 !size) (0, 0));
    !heap.(!size) <- x;
    let i = ref !size in
    incr size;
    while !i > 0 && fst !heap.((!i - 1) / 2) > fst !heap.(!i) do
      swap !i ((!i - 1) / 2);
      i := (!i - 1) / 2
    done
  in
  let pop () =
    let top = !heap.(0) in
    decr size;
    !heap.(0) <- !heap.(!size);
    let i = ref 0 and continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let s = ref !i in
      if l < !size && fst !heap.(l) < fst !heap.(!s) then s := l;
      if r < !size && fst !heap.(r) < fst !heap.(!s) then s := r;
      if !s = !i then continue := false
      else begin
        swap !i !s;
        i := !s
      end
    done;
    top
  in
  dist.(src) <- 0;
  push (0, src);
  let result = ref None in
  while !result = None && !size > 0 do
    let d, v = pop () in
    if v = dst then result := Some d
    else if d = dist.(v) then
      List.iter
        (fun e ->
          let nd = d + e.e_w in
          if nd < dist.(e.e_tgt) then begin
            dist.(e.e_tgt) <- nd;
            push (nd, e.e_tgt)
          end)
        m.out.(v)
  done;
  !result

(* The [k] oldest people, ties broken by name. *)
let top_by_age m k =
  let all = List.init m.count (fun i -> (- m.age.(i), m.names.(i))) in
  List.filteri (fun i _ -> i < k) (List.sort compare all)
  |> List.map (fun (a, n) -> (n, - a))
