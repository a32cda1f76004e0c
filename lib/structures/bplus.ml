module Memsim = Nvmpi_memsim.Memsim
module Machine = Core.Machine
module Swizzle = Core.Swizzle
module Vaddr = Nvmpi_addr.Kinds.Vaddr

let kind_tag = 0x17

module Make (P : Core.Repr_sig.S) = struct
  type t = { node : Node.t; meta : Vaddr.t; order : int }

  let slot = P.slot_size
  let m t = t.node.Node.machine
  let m_ t = t.node.Node.machine
  let root_holder t = Vaddr.add t.meta Node.head_slot_off

  (* Node layout (arrays are sized order+1 so a node can temporarily
     hold one extra entry between insertion and split):
       0: is_leaf, 8: nkeys, 16: keys[order+1]
       leaves:    values[order+1] then the next-leaf slot
       internal:  children[order+2] slots *)
  let keys_off = 16
  let key_addr a i = Vaddr.add a (keys_off + (8 * i))
  let arrays_off t = keys_off + (8 * (t.order + 1))
  let value_addr t a i = Vaddr.add a (arrays_off t + (8 * i))
  let next_holder t a = Vaddr.add a (arrays_off t + (8 * (t.order + 1)))
  let child_holder t a i = Vaddr.add a (arrays_off t + (i * slot))
  let leaf_size t = arrays_off t + (8 * (t.order + 1)) + slot
  let internal_size t = arrays_off t + ((t.order + 2) * slot)

  let is_leaf t a = Machine.load64 (m t) a = 1
  let nkeys t a = Machine.load64 (m t) (Vaddr.add a 8)
  let set_nkeys t a n = Machine.store64 (m t) (Vaddr.add a 8) n
  let get_key t a i = Machine.load64 (m t) (key_addr a i)
  let set_key t a i v = Machine.store64 (m t) (key_addr a i) v
  let get_value t a i = Machine.load64 (m t) (value_addr t a i)
  let set_value t a i v = Machine.store64 (m t) (value_addr t a i) v
  let get_child t a i = P.load (m_ t) ~holder:(child_holder t a i)
  let set_child t a i v = P.store (m_ t) ~holder:(child_holder t a i) v
  let get_next t a = P.load (m_ t) ~holder:(next_holder t a)
  let set_next t a v = P.store (m_ t) ~holder:(next_holder t a) v

  let create node ~name ?(order = 8) () =
    if order < 3 then invalid_arg "Bplus.create: order must be >= 3";
    let meta = Node.write_meta node ~name ~kind:kind_tag ~aux:order in
    { node; meta; order }

  let attach node ~name =
    let meta, _, order =
      Node.find_meta node.Node.machine (Node.home_region node) ~name
        ~kind:kind_tag
    in
    { node; meta; order }

  let new_leaf t =
    let a = Node.alloc_node t.node (leaf_size t) in
    Machine.store64 (m t) a 1;
    set_nkeys t a 0;
    set_next t a Vaddr.null;
    a

  let new_internal t =
    let a = Node.alloc_node t.node (internal_size t) in
    Machine.store64 (m t) a 0;
    set_nkeys t a 0;
    a

  (* First index whose key is >= [key] (linear, charged). *)
  let find_pos t a ~key =
    let n = nkeys t a in
    let rec go i = if i >= n || get_key t a i >= key then i else go (i + 1) in
    go 0

  let leaf_insert_at t a pos ~key ~value =
    let n = nkeys t a in
    for i = n downto pos + 1 do
      set_key t a i (get_key t a (i - 1));
      set_value t a i (get_value t a (i - 1))
    done;
    set_key t a pos key;
    set_value t a pos value;
    set_nkeys t a (n + 1)

  let internal_insert_at t a pos ~key ~child =
    let n = nkeys t a in
    for i = n downto pos + 1 do
      set_key t a i (get_key t a (i - 1))
    done;
    for i = n + 1 downto pos + 2 do
      set_child t a i (get_child t a (i - 1))
    done;
    set_key t a pos key;
    set_child t a (pos + 1) child;
    set_nkeys t a (n + 1)

  let split_leaf t a =
    let n = nkeys t a in
    let mid = n / 2 in
    let right = new_leaf t in
    for i = mid to n - 1 do
      set_key t right (i - mid) (get_key t a i);
      set_value t right (i - mid) (get_value t a i)
    done;
    set_nkeys t right (n - mid);
    set_nkeys t a mid;
    set_next t right (get_next t a);
    set_next t a right;
    (get_key t right 0, right)

  let split_internal t a =
    let n = nkeys t a in
    let mid = n / 2 in
    let sep = get_key t a mid in
    let right = new_internal t in
    for i = mid + 1 to n - 1 do
      set_key t right (i - mid - 1) (get_key t a i)
    done;
    for i = mid + 1 to n do
      set_child t right (i - mid - 1) (get_child t a i)
    done;
    set_nkeys t right (n - mid - 1);
    set_nkeys t a mid;
    (sep, right)

  let rec insert_rec t a ~key ~value =
    if is_leaf t a then begin
      let pos = find_pos t a ~key in
      if pos < nkeys t a && get_key t a pos = key then begin
        set_value t a pos value;
        None
      end
      else begin
        leaf_insert_at t a pos ~key ~value;
        if nkeys t a > t.order then Some (split_leaf t a) else None
      end
    end
    else begin
      let pos = find_pos t a ~key in
      (* Separator keys equal to [key] route right (keys >= separator
         live in the right child under our split convention). *)
      let pos = if pos < nkeys t a && get_key t a pos = key then pos + 1 else pos in
      let child = get_child t a pos in
      match insert_rec t child ~key ~value with
      | None -> None
      | Some (sep, right) ->
          internal_insert_at t a pos ~key:sep ~child:right;
          if nkeys t a > t.order then Some (split_internal t a) else None
    end

  let insert t ~key ~value =
    let root = P.load (m_ t) ~holder:(root_holder t) in
    if Vaddr.is_null root then begin
      let leaf = new_leaf t in
      leaf_insert_at t leaf 0 ~key ~value;
      P.store (m_ t) ~holder:(root_holder t) leaf
    end
    else
      match insert_rec t root ~key ~value with
      | None -> ()
      | Some (sep, right) ->
          let new_root = new_internal t in
          set_key t new_root 0 sep;
          set_child t new_root 0 root;
          set_child t new_root 1 right;
          set_nkeys t new_root 1;
          P.store (m_ t) ~holder:(root_holder t) new_root

  let rec descend t a ~key =
    Node.touch t.node;
    if is_leaf t a then a
    else begin
      let pos = find_pos t a ~key in
      let pos =
        if pos < nkeys t a && get_key t a pos = key then pos + 1 else pos
      in
      descend t (get_child t a pos) ~key
    end

  let lookup t ~key =
    let root = P.load (m_ t) ~holder:(root_holder t) in
    if Vaddr.is_null root then None
    else
      let leaf = descend t root ~key in
      let pos = find_pos t leaf ~key in
      if pos < nkeys t leaf && get_key t leaf pos = key then
        Some (get_value t leaf pos)
      else None

  let delete t ~key =
    let root = P.load (m_ t) ~holder:(root_holder t) in
    if Vaddr.is_null root then false
    else
      let leaf = descend t root ~key in
      let pos = find_pos t leaf ~key in
      if pos < nkeys t leaf && get_key t leaf pos = key then begin
        let n = nkeys t leaf in
        for i = pos to n - 2 do
          set_key t leaf i (get_key t leaf (i + 1));
          set_value t leaf i (get_value t leaf (i + 1))
        done;
        set_nkeys t leaf (n - 1);
        true
      end
      else false

  let leftmost_leaf t =
    let root = P.load (m_ t) ~holder:(root_holder t) in
    if Vaddr.is_null root then Vaddr.null
    else
      let rec go a = if is_leaf t a then a else go (get_child t a 0) in
      go root

  let fold_leaves t f acc =
    let rec go leaf acc =
      if Vaddr.is_null leaf then acc
      else begin
        Node.touch t.node;
        let acc = ref acc in
        for i = 0 to nkeys t leaf - 1 do
          acc := f !acc (get_key t leaf i) (get_value t leaf i)
        done;
        go (get_next t leaf) !acc
      end
    in
    go (leftmost_leaf t) acc

  let size t = fold_leaves t (fun n _ _ -> n + 1) 0
  let to_list t = List.rev (fold_leaves t (fun acc k v -> (k, v) :: acc) [])

  let min_binding t =
    let rec first leaf =
      if Vaddr.is_null leaf then None
      else if nkeys t leaf > 0 then Some (get_key t leaf 0, get_value t leaf 0)
      else first (get_next t leaf)
    in
    first (leftmost_leaf t)

  let range t ~lo ~hi =
    let root = P.load (m_ t) ~holder:(root_holder t) in
    if Vaddr.is_null root then []
    else
      let rec collect leaf acc =
        if Vaddr.is_null leaf then acc
        else begin
          Node.touch t.node;
          let stop = ref false in
          let acc = ref acc in
          for i = 0 to nkeys t leaf - 1 do
            let k = get_key t leaf i in
            if k > hi then stop := true
            else if k >= lo then acc := (k, get_value t leaf i) :: !acc
          done;
          if !stop then !acc else collect (get_next t leaf) !acc
        end
      in
      List.rev (collect (descend t root ~key:lo) [])

  let depth t =
    let root = P.load (m_ t) ~holder:(root_holder t) in
    if Vaddr.is_null root then 0
    else
      let rec go a = if is_leaf t a then 1 else 1 + go (get_child t a 0) in
      go root

  let traverse t =
    let n = ref 0 and sum = ref 0 in
    let rec go a =
      Node.touch t.node;
      incr n;
      let k = nkeys t a in
      for i = 0 to k - 1 do
        sum := !sum + get_key t a i
      done;
      if is_leaf t a then
        for i = 0 to k - 1 do
          sum := !sum + get_value t a i
        done
      else
        for i = 0 to k do
          go (get_child t a i)
        done
    in
    (let root = P.load (m_ t) ~holder:(root_holder t) in
     if not (Vaddr.is_null root) then go root);
    (!n, !sum)

  let fail fmt = Printf.ksprintf failwith ("Bplus.check: " ^^ fmt)

  let check t =
    let root = P.load (m_ t) ~holder:(root_holder t) in
    if not (Vaddr.is_null root) then begin
        (* Structural walk: sorted keys, child separation, uniform
           depth; collect leaves left to right. *)
        let leaves = ref [] in
        let rec go a ~lo ~hi =
          let n = nkeys t a in
          if (not (Vaddr.equal a root)) && n = 0 && not (is_leaf t a) then
            fail "empty internal node 0x%x" (a :> int);
          for i = 0 to n - 1 do
            let k = get_key t a i in
            (match lo with Some l when k < l -> fail "key %d below bound" k | _ -> ());
            (match hi with Some h when k >= h -> fail "key %d above bound" k | _ -> ());
            if i > 0 && get_key t a (i - 1) >= k then
              fail "unsorted keys in 0x%x" (a :> int)
          done;
          if is_leaf t a then begin
            leaves := a :: !leaves;
            1
          end
          else begin
            let depths =
              List.init (n + 1) (fun i ->
                  let lo' = if i = 0 then lo else Some (get_key t a (i - 1)) in
                  let hi' = if i = n then hi else Some (get_key t a i) in
                  go (get_child t a i) ~lo:lo' ~hi:hi')
            in
            match depths with
            | d :: rest ->
                if List.exists (fun d' -> d' <> d) rest then
                  fail "non-uniform leaf depth under 0x%x" (a :> int);
                d + 1
            | [] -> assert false
          end
        in
        ignore (go root ~lo:None ~hi:None);
        (* The leaf chain must enumerate exactly the structural leaves,
           left to right. *)
        let structural = List.rev !leaves in
        let chained =
          let rec follow leaf acc =
            if Vaddr.is_null leaf then List.rev acc
            else follow (get_next t leaf) (leaf :: acc)
          in
          follow (leftmost_leaf t) []
        in
        if not (List.equal Vaddr.equal structural chained) then
          fail "leaf chain disagrees with tree";
        (* Keys across the chain are globally ascending. *)
        ignore
          (fold_leaves t
             (fun prev k _ ->
               (match prev with
               | Some p when p >= k -> fail "leaf chain not ascending at %d" k
               | _ -> ());
               Some k)
             None)
    end

  let check_swizzle () =
    if not (String.equal P.name Swizzle.name) then
      invalid_arg "Bplus: swizzle pass on a non-swizzle representation"

  let swizzle t =
    check_swizzle ();
    let rec go a =
      if is_leaf t a then ignore (Swizzle.swizzle_slot (m_ t) ~holder:(next_holder t a))
      else
        for i = 0 to nkeys t a do
          go (Swizzle.swizzle_slot (m_ t) ~holder:(child_holder t a i))
        done
    in
    let root = Swizzle.swizzle_slot (m_ t) ~holder:(root_holder t) in
    if not (Vaddr.is_null root) then go root

  let unswizzle t =
    check_swizzle ();
    let rec go a =
      if is_leaf t a then
        ignore (Swizzle.unswizzle_slot (m_ t) ~holder:(next_holder t a))
      else
        for i = 0 to nkeys t a do
          go (Swizzle.unswizzle_slot (m_ t) ~holder:(child_holder t a i))
        done
    in
    let root = Swizzle.unswizzle_slot (m_ t) ~holder:(root_holder t) in
    if not (Vaddr.is_null root) then go root
end
