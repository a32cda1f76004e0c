module Memsim = Nvmpi_memsim.Memsim
module Machine = Core.Machine
module Swizzle = Core.Swizzle
module Vaddr = Nvmpi_addr.Kinds.Vaddr

let kind_tag = 0x15

module Make (P : Core.Repr_sig.S) = struct
  (* The metadata block's single slot points at an anchor carrying the
     head and tail slots (two representation-sized slots). *)
  type t = { node : Node.t; meta : Vaddr.t; anchor : Vaddr.t }

  let slot = P.slot_size
  let next_off = 0
  let prev_off = slot
  let key_off = 2 * slot
  let payload_off = (2 * slot) + 8
  let node_size t = payload_off + t.node.Node.payload
  let m t = t.node.Node.machine
  let head_holder t = t.anchor
  let tail_holder t = Vaddr.add t.anchor slot

  let create node ~name =
    let meta = Node.write_meta node ~name ~kind:kind_tag ~aux:0 in
    let anchor = Node.alloc_in_home node (2 * slot) in
    let t = { node; meta; anchor } in
    P.store t.node.Node.machine ~holder:anchor Vaddr.null;
    P.store t.node.Node.machine ~holder:(Vaddr.add anchor slot) Vaddr.null;
    Machine.store64 t.node.Node.machine
      (Vaddr.add meta Node.head_slot_off) (Vaddr.offset_in anchor ~base:meta);
    t

  let attach node ~name =
    let meta, payload, _ =
      Node.find_meta node.Node.machine (Node.home_region node) ~name
        ~kind:kind_tag
    in
    if payload <> node.Node.payload then
      failwith "Dllist.attach: payload size mismatch";
    let anchor =
      Vaddr.add meta
        (Machine.load64 node.Node.machine
           (Vaddr.add meta Node.head_slot_off))
    in
    { node; meta; anchor }

  let new_node t ~key =
    let a = Node.alloc_node t.node (node_size t) in
    P.store (m t) ~holder:(Vaddr.add a next_off) Vaddr.null;
    P.store (m t) ~holder:(Vaddr.add a prev_off) Vaddr.null;
    Machine.store64 (m t) (Vaddr.add a key_off) key;
    Node.write_payload t.node ~addr:(Vaddr.add a payload_off) ~seed:key;
    a

  let push_front t ~key =
    let a = new_node t ~key in
    let old = P.load (m t) ~holder:(head_holder t) in
    P.store (m t) ~holder:(Vaddr.add a next_off) old;
    if Vaddr.is_null old then P.store (m t) ~holder:(tail_holder t) a
    else P.store (m t) ~holder:(Vaddr.add old prev_off) a;
    P.store (m t) ~holder:(head_holder t) a

  let push_back t ~key =
    let a = new_node t ~key in
    let old = P.load (m t) ~holder:(tail_holder t) in
    P.store (m t) ~holder:(Vaddr.add a prev_off) old;
    if Vaddr.is_null old then P.store (m t) ~holder:(head_holder t) a
    else P.store (m t) ~holder:(Vaddr.add old next_off) a;
    P.store (m t) ~holder:(tail_holder t) a

  let find_node t ~key =
    let rec go cur =
      if Vaddr.is_null cur then Vaddr.null
      else begin
        Node.touch t.node;
        if Machine.load64 (m t) (Vaddr.add cur key_off) = key then cur
        else go (P.load (m t) ~holder:(Vaddr.add cur next_off))
      end
    in
    go (P.load (m t) ~holder:(head_holder t))

  let remove t ~key =
    let a = find_node t ~key in
    if Vaddr.is_null a then false
    else begin
      let next = P.load (m t) ~holder:(Vaddr.add a next_off) in
      let prev = P.load (m t) ~holder:(Vaddr.add a prev_off) in
      (if Vaddr.is_null prev then P.store (m t) ~holder:(head_holder t) next
       else P.store (m t) ~holder:(Vaddr.add prev next_off) next);
      (if Vaddr.is_null next then P.store (m t) ~holder:(tail_holder t) prev
       else P.store (m t) ~holder:(Vaddr.add next prev_off) prev);
      true
    end

  let fold_forward t f acc =
    let rec go cur acc =
      if Vaddr.is_null cur then acc
      else begin
        Node.touch t.node;
        go
          (P.load (m t) ~holder:(Vaddr.add cur next_off))
          (f acc cur (Machine.load64 (m t) (Vaddr.add cur key_off)))
      end
    in
    go (P.load (m t) ~holder:(head_holder t)) acc

  let length t = fold_forward t (fun n _ _ -> n + 1) 0
  let to_list t = List.rev (fold_forward t (fun acc _ k -> k :: acc) [])
  let find t ~key = not (Vaddr.is_null (find_node t ~key))

  (* Walking tail-to-head while consing yields head-to-tail order, so
     the result can be compared with {!to_list} directly. *)
  let to_list_rev t =
    let rec go cur acc =
      if Vaddr.is_null cur then acc
      else begin
        Node.touch t.node;
        go
          (P.load (m t) ~holder:(Vaddr.add cur prev_off))
          (Machine.load64 (m t) (Vaddr.add cur key_off) :: acc)
      end
    in
    go (P.load (m t) ~holder:(tail_holder t)) []

  let traverse t =
    let n = ref 0 and sum = ref 0 in
    fold_forward t
      (fun () cur _ ->
        incr n;
        sum := !sum + Machine.load64 (m t) (Vaddr.add cur key_off);
        sum := !sum + Node.read_payload t.node ~addr:(Vaddr.add cur payload_off))
      ();
    (!n, !sum)

  let check t =
    let rec go prev cur =
      if not (Vaddr.is_null cur) then begin
        let p = P.load (m t) ~holder:(Vaddr.add cur prev_off) in
        if not (Vaddr.equal p prev) then
          failwith
            (Printf.sprintf "Dllist.check: node 0x%x has prev 0x%x, expected \
                             0x%x" (cur :> int) (p :> int) (prev :> int));
        go cur (P.load (m t) ~holder:(Vaddr.add cur next_off))
      end
      else if not (Vaddr.equal (P.load (m t) ~holder:(tail_holder t)) prev)
      then failwith "Dllist.check: tail does not match the last node"
    in
    go Vaddr.null (P.load (m t) ~holder:(head_holder t))

  let check_swizzle () =
    if not (String.equal P.name Swizzle.name) then
      invalid_arg "Dllist: swizzle pass on a non-swizzle representation"

  (* Forward walk converting next+prev+the two anchor slots, each slot
     exactly once. *)
  let swizzle t =
    check_swizzle ();
    let rec go cur =
      if not (Vaddr.is_null cur) then begin
        ignore (Swizzle.swizzle_slot (m t) ~holder:(Vaddr.add cur prev_off));
        go (Swizzle.swizzle_slot (m t) ~holder:(Vaddr.add cur next_off))
      end
    in
    go (Swizzle.swizzle_slot (m t) ~holder:(head_holder t));
    ignore (Swizzle.swizzle_slot (m t) ~holder:(tail_holder t))

  let unswizzle t =
    check_swizzle ();
    let rec go cur =
      if not (Vaddr.is_null cur) then begin
        ignore (Swizzle.unswizzle_slot (m t) ~holder:(Vaddr.add cur prev_off));
        go (Swizzle.unswizzle_slot (m t) ~holder:(Vaddr.add cur next_off))
      end
    in
    go (Swizzle.unswizzle_slot (m t) ~holder:(head_holder t));
    ignore (Swizzle.unswizzle_slot (m t) ~holder:(tail_holder t))
end
