module Memsim = Nvmpi_memsim.Memsim
module Machine = Core.Machine
module Swizzle = Core.Swizzle
module Vaddr = Nvmpi_addr.Kinds.Vaddr

let kind_tag = 0x16

module Make (P : Core.Repr_sig.S) = struct
  type t = { node : Node.t; meta : Vaddr.t }

  let slot = P.slot_size

  (* Vertex fields *)
  let vnext_off = 0
  let adj_off = slot
  let key_off = 2 * slot
  let payload_off = (2 * slot) + 8
  let vertex_size t = payload_off + t.node.Node.payload

  (* Edge fields *)
  let enext_off = 0
  let target_off = slot
  let edge_size = 2 * slot

  let m t = t.node.Node.machine
  let head_holder t = Vaddr.add t.meta Node.head_slot_off

  let create node ~name =
    let meta = Node.write_meta node ~name ~kind:kind_tag ~aux:0 in
    { node; meta }

  let attach node ~name =
    let meta, payload, _ =
      Node.find_meta node.Node.machine (Node.home_region node) ~name
        ~kind:kind_tag
    in
    if payload <> node.Node.payload then
      failwith "Graph.attach: payload size mismatch";
    { node; meta }

  let find_vertex t ~key =
    let rec go cur =
      if Vaddr.is_null cur then Vaddr.null
      else begin
        Node.touch t.node;
        if Machine.load64 (m t) (Vaddr.add cur key_off) = key then cur
        else go (P.load (m t) ~holder:(Vaddr.add cur vnext_off))
      end
    in
    go (P.load (m t) ~holder:(head_holder t))

  let mem_vertex t ~key = not (Vaddr.is_null (find_vertex t ~key))

  let add_vertex t ~key =
    if mem_vertex t ~key then false
    else begin
      let v = Node.alloc_node t.node (vertex_size t) in
      P.store (m t) ~holder:(Vaddr.add v vnext_off)
        (P.load (m t) ~holder:(head_holder t));
      P.store (m t) ~holder:(Vaddr.add v adj_off) Vaddr.null;
      Machine.store64 (m t) (Vaddr.add v key_off) key;
      Node.write_payload t.node ~addr:(Vaddr.add v payload_off) ~seed:key;
      P.store (m t) ~holder:(head_holder t) v;
      true
    end

  let add_edge t ~src ~dst =
    let sv = find_vertex t ~key:src in
    let dv = find_vertex t ~key:dst in
    if Vaddr.is_null sv then
      failwith (Printf.sprintf "Graph.add_edge: no vertex %d" src);
    if Vaddr.is_null dv then
      failwith (Printf.sprintf "Graph.add_edge: no vertex %d" dst);
    let e = Node.alloc_node t.node edge_size in
    P.store (m t) ~holder:(Vaddr.add e enext_off) (P.load (m t) ~holder:(Vaddr.add sv adj_off));
    P.store (m t) ~holder:(Vaddr.add e target_off) dv;
    P.store (m t) ~holder:(Vaddr.add sv adj_off) e

  let fold_vertices t f acc =
    let rec go cur acc =
      if Vaddr.is_null cur then acc
      else begin
        Node.touch t.node;
        go (P.load (m t) ~holder:(Vaddr.add cur vnext_off)) (f acc cur)
      end
    in
    go (P.load (m t) ~holder:(head_holder t)) acc

  let fold_edges t v f acc =
    let rec go cur acc =
      if Vaddr.is_null cur then acc
      else begin
        Node.touch t.node;
        go (P.load (m t) ~holder:(Vaddr.add cur enext_off)) (f acc cur)
      end
    in
    go (P.load (m t) ~holder:(Vaddr.add v adj_off)) acc

  let vertex_count t = fold_vertices t (fun n _ -> n + 1) 0

  let edge_count t =
    fold_vertices t (fun n v -> fold_edges t v (fun n _ -> n + 1) n) 0

  let successors t ~key =
    let v = find_vertex t ~key in
    if Vaddr.is_null v then []
    else
        List.rev
          (fold_edges t v
             (fun acc e ->
               let dv = P.load (m t) ~holder:(Vaddr.add e target_off) in
               Machine.load64 (m t) (Vaddr.add dv key_off) :: acc)
             [])

  let reachable t ~from =
    let start = find_vertex t ~key:from in
    if Vaddr.is_null start then 0
    else begin
        let visited = Hashtbl.create 64 in
        let queue = Queue.create () in
        Hashtbl.replace visited start ();
        Queue.push start queue;
        let n = ref 0 in
        while not (Queue.is_empty queue) do
          let v = Queue.pop queue in
          incr n;
          fold_edges t v
            (fun () e ->
              let dv = P.load (m t) ~holder:(Vaddr.add e target_off) in
              if not (Hashtbl.mem visited dv) then begin
                Hashtbl.replace visited dv ();
                Queue.push dv queue
              end)
            ()
        done;
        !n
    end

  let traverse t =
    let n = ref 0 and sum = ref 0 in
    fold_vertices t
      (fun () v ->
        incr n;
        sum := !sum + Machine.load64 (m t) (Vaddr.add v key_off);
        sum := !sum + Node.read_payload t.node ~addr:(Vaddr.add v payload_off);
        fold_edges t v
          (fun () e ->
            incr n;
            let dv = P.load (m t) ~holder:(Vaddr.add e target_off) in
            sum := !sum + Machine.load64 (m t) (Vaddr.add dv key_off))
          ())
      ();
    (!n, !sum)

  let check_swizzle () =
    if not (String.equal P.name Swizzle.name) then
      invalid_arg "Graph: swizzle pass on a non-swizzle representation"

  (* Every slot is visited exactly once: each vertex's vnext and adj,
     each edge's enext and target. *)
  let swizzle t =
    check_swizzle ();
    let rec go_edges e =
      if not (Vaddr.is_null e) then begin
        ignore (Swizzle.swizzle_slot (m t) ~holder:(Vaddr.add e target_off));
        go_edges (Swizzle.swizzle_slot (m t) ~holder:(Vaddr.add e enext_off))
      end
    in
    let rec go_vertices v =
      if not (Vaddr.is_null v) then begin
        go_edges (Swizzle.swizzle_slot (m t) ~holder:(Vaddr.add v adj_off));
        go_vertices (Swizzle.swizzle_slot (m t) ~holder:(Vaddr.add v vnext_off))
      end
    in
    go_vertices (Swizzle.swizzle_slot (m t) ~holder:(head_holder t))

  let unswizzle t =
    check_swizzle ();
    let rec go_edges e =
      if not (Vaddr.is_null e) then begin
        ignore (Swizzle.unswizzle_slot (m t) ~holder:(Vaddr.add e target_off));
        go_edges (Swizzle.unswizzle_slot (m t) ~holder:(Vaddr.add e enext_off))
      end
    in
    let rec go_vertices v =
      if not (Vaddr.is_null v) then begin
        go_edges (Swizzle.unswizzle_slot (m t) ~holder:(Vaddr.add v adj_off));
        go_vertices (Swizzle.unswizzle_slot (m t) ~holder:(Vaddr.add v vnext_off))
      end
    in
    go_vertices (Swizzle.unswizzle_slot (m t) ~holder:(head_holder t))
end
