type t = {
  n : int;
  adj : int array array;        (* adj.(v).(p) = neighbor across port p *)
  adj_edge : int array array;   (* adj_edge.(v).(p) = edge id *)
  back : int array array;       (* back.(v).(p) = port at the neighbor *)
  ends : (int * int) array;     (* endpoints per edge id *)
}

let of_edges ~n edge_list =
  let seen = Hashtbl.create (List.length edge_list) in
  List.iter
    (fun (u, v) ->
      if u = v then invalid_arg "Graph.of_edges: self-loop";
      if u < 0 || u >= n || v < 0 || v >= n then
        invalid_arg "Graph.of_edges: endpoint out of range";
      let key = (min u v, max u v) in
      if Hashtbl.mem seen key then invalid_arg "Graph.of_edges: duplicate edge";
      Hashtbl.add seen key ())
    edge_list;
  let deg = Array.make n 0 in
  List.iter
    (fun (u, v) ->
      deg.(u) <- deg.(u) + 1;
      deg.(v) <- deg.(v) + 1)
    edge_list;
  let adj = Array.init n (fun v -> Array.make deg.(v) (-1)) in
  let adj_edge = Array.init n (fun v -> Array.make deg.(v) (-1)) in
  let back = Array.init n (fun v -> Array.make deg.(v) (-1)) in
  let fill = Array.make n 0 in
  let ends = Array.of_list edge_list in
  Array.iteri
    (fun e (u, v) ->
      let pu = fill.(u) and pv = fill.(v) in
      fill.(u) <- pu + 1;
      fill.(v) <- pv + 1;
      adj.(u).(pu) <- v;
      adj.(v).(pv) <- u;
      adj_edge.(u).(pu) <- e;
      adj_edge.(v).(pv) <- e;
      back.(u).(pu) <- pv;
      back.(v).(pv) <- pu)
    ends;
  { n; adj; adj_edge; back; ends }

let n g = g.n

let m g = Array.length g.ends

let degree g v = Array.length g.adj.(v)

let max_degree g =
  let best = ref 0 in
  for v = 0 to g.n - 1 do
    if degree g v > !best then best := degree g v
  done;
  !best

let neighbor g v p = g.adj.(v).(p)

let edge_id g v p = g.adj_edge.(v).(p)

let back_port g v p = g.back.(v).(p)

let endpoints g e = g.ends.(e)

let port_of g v u =
  let d = degree g v in
  let rec go p =
    if p >= d then raise Not_found
    else if g.adj.(v).(p) = u then p
    else go (p + 1)
  in
  go 0

let edges g = Array.to_list g.ends

let bfs g root =
  let dist = Array.make g.n (-1) in
  dist.(root) <- 0;
  let queue = Queue.create () in
  Queue.add root queue;
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    Array.iter
      (fun u ->
        if dist.(u) < 0 then begin
          dist.(u) <- dist.(v) + 1;
          Queue.add u queue
        end)
      g.adj.(v)
  done;
  dist

let bfs_parents g root =
  let dist = Array.make g.n (-1) in
  let parent = Array.make g.n (-1) in
  dist.(root) <- 0;
  parent.(root) <- root;
  let queue = Queue.create () in
  Queue.add root queue;
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    Array.iter
      (fun u ->
        if dist.(u) < 0 then begin
          dist.(u) <- dist.(v) + 1;
          parent.(u) <- v;
          Queue.add u queue
        end)
      g.adj.(v)
  done;
  (dist, parent)

let is_connected g =
  if g.n = 0 then true
  else Array.for_all (fun d -> d >= 0) (bfs g 0)

let is_tree g = m g = g.n - 1 && is_connected g

let eccentricity g root = Array.fold_left max 0 (bfs g root)

let diameter g =
  let best = ref 0 in
  for v = 0 to g.n - 1 do
    best := max !best (eccentricity g v)
  done;
  !best

let girth g =
  (* BFS from each root; a non-tree edge at depths (d1, d2) closes a
     cycle through the root of length d1 + d2 + 1 when the BFS parents
     differ.  The minimum over all roots is exact. *)
  let best = ref max_int in
  for root = 0 to g.n - 1 do
    let dist = Array.make g.n (-1) in
    let parent_edge = Array.make g.n (-1) in
    dist.(root) <- 0;
    let queue = Queue.create () in
    Queue.add root queue;
    while not (Queue.is_empty queue) do
      let v = Queue.pop queue in
      Array.iteri
        (fun p u ->
          let e = g.adj_edge.(v).(p) in
          if e <> parent_edge.(v) then begin
            if dist.(u) < 0 then begin
              dist.(u) <- dist.(v) + 1;
              parent_edge.(u) <- e;
              Queue.add u queue
            end
            else if dist.(u) >= dist.(v) then
              (* Cycle through this edge. *)
              best := min !best (dist.(u) + dist.(v) + 1)
          end)
        g.adj.(v)
    done
  done;
  if !best = max_int then None else Some !best

let permute_ports g perms =
  if Array.length perms <> g.n then invalid_arg "Graph.permute_ports: wrong length";
  Array.iteri
    (fun v perm ->
      let d = degree g v in
      if Array.length perm <> d then invalid_arg "Graph.permute_ports: bad arity";
      let seen = Array.make d false in
      Array.iter
        (fun p ->
          if p < 0 || p >= d || seen.(p) then
            invalid_arg "Graph.permute_ports: not a permutation";
          seen.(p) <- true)
        perm)
    perms;
  let remap field =
    Array.mapi
      (fun v row ->
        let d = Array.length row in
        let fresh = Array.make d (-1) in
        for p = 0 to d - 1 do
          fresh.(perms.(v).(p)) <- row.(p)
        done;
        fresh)
      field
  in
  let adj = remap g.adj and adj_edge = remap g.adj_edge and back = remap g.back in
  (* back ports must also be rewritten through the neighbor's permutation. *)
  let back =
    Array.mapi
      (fun v row ->
        Array.mapi (fun p old_back -> perms.(adj.(v).(p)).(old_back)) row)
      back
  in
  { g with adj; adj_edge; back }

let to_dot ?(name = "graph") ?edge_colors ?highlight g =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "graph \"%s\" {\n" name);
  for v = 0 to g.n - 1 do
    let attrs =
      match highlight with
      | Some p when p v -> " [style=filled, fillcolor=lightblue]"
      | Some _ | None -> ""
    in
    Buffer.add_string buf (Printf.sprintf "  %d%s;\n" v attrs)
  done;
  Array.iteri
    (fun e (u, v) ->
      let label =
        match edge_colors with
        | Some colors -> Printf.sprintf " [label=\"%d\"]" colors.(e)
        | None -> ""
      in
      Buffer.add_string buf (Printf.sprintf "  %d -- %d%s;\n" u v label))
    g.ends;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
