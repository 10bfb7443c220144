; Shifts by a register count, as in an x86 execution unit: SHL and SAR
; mask the count, so the count (logand c 15) is symbolic, and its
; binding has 9 bits.  Each shift is checked against four conditional
; constant shifts, one per count bit.  The words are 16 bits with a
; 4-bit count mask (x86 masks 32-bit shifts to 5 bits) so that the aig
; proofs stay short.  The count is bound before the word, which keeps
; the BDDs small.

(defun shl-stages (x c)
  (let* ((x (if (logbitp 0 c) (ash x 1) x))
         (x (if (logbitp 1 c) (ash x 2) x))
         (x (if (logbitp 2 c) (ash x 4) x)))
    (if (logbitp 3 c) (ash x 8) x)))

(defun sar-stages (x c)
  (let* ((x (if (logbitp 0 c) (ash x -1) x))
         (x (if (logbitp 1 c) (ash x -2) x))
         (x (if (logbitp 2 c) (ash x -4) x)))
    (if (logbitp 3 c) (ash x -8) x)))

(defun sar-stages-buggy (x c)
  (let* ((x (if (logbitp 0 c) (ash x -1) x))
         (x (if (logbitp 1 c) (ash x -2) x))
         (x (if (logbitp 2 c) (ash x -4) x)))
    (if (logbitp 3 c) (ash x -7) x)))

(def-gl-thm shl-by-masked-count
  :hyp (and (unsigned-byte-p 8 c) (unsigned-byte-p 16 x))
  :concl (equal (logand (ash x (logand c 15)) #xFFFF)
                (logand (shl-stages x c) #xFFFF))
  :g-bindings `((c ,(g-int 0 1 9)) (x ,(g-int 9 1 17))))

(def-gl-thm sar-by-masked-count
  :hyp (and (unsigned-byte-p 8 c) (signed-byte-p 16 x))
  :concl (equal (ash x (- 0 (logand c 15)))
                (sar-stages x c))
  :g-bindings `((c ,(g-int 0 1 9)) (x ,(g-int 9 1 16))))

(def-gl-thm sar-by-masked-count-buggy
  :hyp (and (unsigned-byte-p 8 c) (signed-byte-p 16 x))
  :concl (equal (ash x (- 0 (logand c 15)))
                (sar-stages-buggy x c))
  :g-bindings `((c ,(g-int 0 1 9)) (x ,(g-int 9 1 16))))
