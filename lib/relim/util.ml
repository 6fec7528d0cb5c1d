let transport_feasible ~supply ~demand ~allowed =
  let ns = Array.length supply and nd = Array.length demand in
  let total_supply = Array.fold_left ( + ) 0 supply in
  let total_demand = Array.fold_left ( + ) 0 demand in
  if total_supply <> total_demand then false
  else begin
    (* Max-flow on the bipartite network source -> supplies -> demands
       -> sink, via repeated augmenting-path search (capacities are
       small integers, node counts tiny). Node ids: 0 = source,
       1..ns = supplies, ns+1..ns+nd = demands, ns+nd+1 = sink. *)
    let n = ns + nd + 2 in
    let sink = n - 1 in
    let cap = Array.make_matrix n n 0 in
    for i = 0 to ns - 1 do
      cap.(0).(1 + i) <- supply.(i);
      for j = 0 to nd - 1 do
        if allowed i j then cap.(1 + i).(ns + 1 + j) <- total_supply
      done
    done;
    for j = 0 to nd - 1 do
      cap.(ns + 1 + j).(sink) <- demand.(j)
    done;
    let rec augment () =
      (* BFS for an augmenting path. *)
      let parent = Array.make n (-1) in
      parent.(0) <- 0;
      let queue = Queue.create () in
      Queue.add 0 queue;
      let found = ref false in
      while (not !found) && not (Queue.is_empty queue) do
        let u = Queue.pop queue in
        for v = 0 to n - 1 do
          if parent.(v) < 0 && cap.(u).(v) > 0 then begin
            parent.(v) <- u;
            if v = sink then found := true else Queue.add v queue
          end
        done
      done;
      if !found then begin
        (* Find bottleneck and update residual capacities. *)
        let rec bottleneck v acc =
          if v = 0 then acc
          else
            let u = parent.(v) in
            bottleneck u (min acc cap.(u).(v))
        in
        let b = bottleneck sink max_int in
        let rec update v =
          if v <> 0 then begin
            let u = parent.(v) in
            cap.(u).(v) <- cap.(u).(v) - b;
            cap.(v).(u) <- cap.(v).(u) + b;
            update u
          end
        in
        update sink;
        b + augment ()
      end
      else 0
    in
    augment () = total_demand
  end

let compositions n k f =
  if k = 0 then (if n = 0 then f [||])
  else begin
    let arr = Array.make k 0 in
    let rec go i remaining =
      if i = k - 1 then begin
        arr.(i) <- remaining;
        f arr
      end
      else
        for v = 0 to remaining do
          arr.(i) <- v;
          go (i + 1) (remaining - v)
        done
    in
    go 0 n
  end

let choose_float n k =
  if k < 0 || k > n then 0.
  else begin
    let k = min k (n - k) in
    let acc = ref 1. in
    for i = 1 to k do
      acc := !acc *. float_of_int (n - k + i) /. float_of_int i
    done;
    !acc
  end

let multisets elems k f =
  let arr = Array.of_list elems in
  let n = Array.length arr in
  if n = 0 then (if k = 0 then f [])
  else begin
    (* Enumerate non-decreasing index sequences of length [k]. *)
    let idx = Array.make k 0 in
    let rec go pos lo =
      if pos = k then begin
        let items = ref [] in
        for i = k - 1 downto 0 do
          items := arr.(idx.(i)) :: !items
        done;
        f !items
      end
      else
        for v = lo to n - 1 do
          idx.(pos) <- v;
          go (pos + 1) v
        done
    in
    go 0 0
  end
