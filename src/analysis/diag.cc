#include "analysis/diag.hh"

#include <sstream>

namespace infs {

const char *
verifyCodeName(VerifyCode c)
{
    switch (c) {
      case VerifyCode::OperandOutOfRange: return "operand_out_of_range";
      case VerifyCode::OperandOrder: return "operand_order";
      case VerifyCode::OperandCount: return "operand_count";
      case VerifyCode::InfiniteMismatch: return "infinite_mismatch";
      case VerifyCode::RankMismatch: return "rank_mismatch";
      case VerifyCode::DimOutOfRank: return "dim_out_of_rank";
      case VerifyCode::EmptyComputeDomain: return "empty_compute_domain";
      case VerifyCode::DomainMismatch: return "domain_mismatch";
      case VerifyCode::BadShrinkRange: return "bad_shrink_range";
      case VerifyCode::BadReduceOp: return "bad_reduce_op";
      case VerifyCode::BadStreamPattern: return "bad_stream_pattern";
      case VerifyCode::BadOutput: return "bad_output";
      case VerifyCode::CmdRankMismatch: return "cmd_rank_mismatch";
      case VerifyCode::CmdDimOutOfRank: return "cmd_dim_out_of_rank";
      case VerifyCode::CmdEmptyTensor: return "cmd_empty_tensor";
      case VerifyCode::CmdBadMask: return "cmd_bad_mask";
      case VerifyCode::CmdBadShiftDist: return "cmd_bad_shift_dist";
      case VerifyCode::CmdBadBroadcast: return "cmd_bad_broadcast";
      case VerifyCode::CmdSlotOutOfRange: return "cmd_slot_out_of_range";
      case VerifyCode::CmdSlotMisaligned: return "cmd_slot_misaligned";
      case VerifyCode::CmdBankInvalid: return "cmd_bank_invalid";
      case VerifyCode::IntraGroupOverlap: return "intra_group_overlap";
      case VerifyCode::RawHazard: return "raw_hazard";
      case VerifyCode::WawHazard: return "waw_hazard";
      case VerifyCode::MissingSync: return "missing_sync";
      case VerifyCode::LotInconsistent: return "lot_inconsistent";
    }
    return "unknown";
}

std::string
VerifyDiag::str() const
{
    std::string s = "[";
    s.append(verifyCodeName(code)).append("] ").append(where);
    return s.append(": ").append(message);
}

bool
VerifyReport::has(VerifyCode code) const
{
    for (const VerifyDiag &d : diags_)
        if (d.code == code)
            return true;
    return false;
}

std::size_t
VerifyReport::count(VerifyCode code) const
{
    std::size_t n = 0;
    for (const VerifyDiag &d : diags_)
        n += d.code == code;
    return n;
}

void
VerifyReport::add(VerifyCode code, std::string where, std::string message)
{
    diags_.push_back(
        VerifyDiag{code, std::move(where), std::move(message)});
}

void
VerifyReport::merge(const VerifyReport &other)
{
    diags_.insert(diags_.end(), other.diags_.begin(), other.diags_.end());
}

std::string
VerifyReport::str() const
{
    std::ostringstream os;
    if (clean()) {
        os << subject_ << ": clean";
        return os.str();
    }
    os << subject_ << ": " << diags_.size() << " diagnostic"
       << (diags_.size() == 1 ? "" : "s") << "\n";
    for (const VerifyDiag &d : diags_)
        os << "  " << d.str() << "\n";
    return os.str();
}

Error
VerifyReport::toError() const
{
    infs_assert(!clean(), "toError() on a clean report");
    std::string msg = subject_ + ": " + diags_.front().str();
    if (diags_.size() > 1) {
        msg += " (+" + std::to_string(diags_.size() - 1) +
               " more diagnostic" + (diags_.size() == 2 ? "" : "s") + ")";
    }
    return Error{ErrCode::VerifyFailed, std::move(msg)};
}

} // namespace infs
