(* CRC-32 (IEEE 802.3 / zlib), table-driven, reflected form.

   The running register lives in a native int (63-bit on every supported
   target, so the 32-bit value fits unsigned); the loop touches no boxed
   [Int32] and allocates nothing per byte. Only the interface converts. *)

let table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        if !c land 1 <> 0 then c := 0xEDB88320 lxor (!c lsr 1) else c := !c lsr 1
      done;
      !c)

let update crc s =
  let c = ref (Int32.to_int crc land 0xFFFFFFFF lxor 0xFFFFFFFF) in
  for i = 0 to String.length s - 1 do
    c :=
      Array.unsafe_get table ((!c lxor Char.code (String.unsafe_get s i)) land 0xFF)
      lxor (!c lsr 8)
  done;
  Int32.of_int (!c lxor 0xFFFFFFFF)

let string s = update 0l s

let to_hex crc = Printf.sprintf "%08lx" crc
